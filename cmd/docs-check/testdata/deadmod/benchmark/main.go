package main

import "example.com/deadmod/internal/lib"

func main() { lib.BenchOnly() }
