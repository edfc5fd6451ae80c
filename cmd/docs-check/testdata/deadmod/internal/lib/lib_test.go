package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	OnlyTested()
	_ = New(Config{OnlyTestSet: 1})
}
