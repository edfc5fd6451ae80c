// Package lib declares one name per case the dead-export gate decides.
package lib

// Used is called by the program.
func Used() {}

// OnlyTested is called only by this package's test.
func OnlyTested() {}

// BenchOnly is called only from the benchmark directory.
func BenchOnly() {}

// Allowed has no caller but an allowlist entry.
func Allowed() {}

// Unreasoned has no caller and an allowlist entry without a reason.
func Unreasoned() {}

// Config is an option struct: a field counts only where it is set.
type Config struct {
	Set         int // set by the program
	OnlyTestSet int // set only by a test
	ReadOnly    int // read by the program, set by nothing
}

// New reads every field of its config.
func New(c Config) int { return c.Set + c.OnlyTestSet + c.ReadOnly }

// Err is an error with a cause.
type Err struct{ cause error }

func (e Err) Error() string { return "lib: " + e.cause.Error() }

// Unwrap is called by the errors package, not by the program.
func (e Err) Unwrap() error { return e.cause }

// Fail returns an Err.
func Fail(cause error) error { return Err{cause} }

// Shape is an interface the program calls through.
type Shape interface{ Area() int }

// Square satisfies Shape; nothing calls Area on a Square directly.
type Square struct{ Side int }

// Area is reached through Shape.
func (s Square) Area() int { return s.Side * s.Side }

// Total sums the areas of the shapes.
func Total(shapes ...Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

// Pair is built positionally and never read by field name.
type Pair struct{ A, B int }

// Sum takes a pair whole.
func Sum(p Pair) int { return len([]Pair{p}) }
