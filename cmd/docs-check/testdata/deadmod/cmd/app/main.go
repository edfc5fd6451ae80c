package main

import (
	"errors"
	"fmt"

	"example.com/deadmod/internal/lib"
)

func main() {
	lib.Used()
	fmt.Println(lib.New(lib.Config{Set: 1}))
	fmt.Println(lib.Fail(errors.New("x")))
	fmt.Println(lib.Total(lib.Square{Side: 2}))
	fmt.Println(lib.Sum(lib.Pair{1, 2}))
	fmt.Println(lib.Run(lib.Policy{}, lib.Slow(), lib.WithTenant("t")), lib.Fast())
}
