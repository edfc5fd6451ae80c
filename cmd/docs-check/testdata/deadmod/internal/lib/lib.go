// Package lib declares one name per case the dead-code gate decides.
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

// Untyped has no caller and an allowlist entry whose reason names no kind.
func Untyped() {}

// Policy's Cap is filled only by its own default: no caller chooses it.
type Policy struct{ Cap int }

func (p *Policy) withDefaults() {
	if p.Cap == 0 {
		p.Cap = 4
	}
}

// Profile is built by two constructors: Rate differs between them, Window
// is a default only Fast gives.
type Profile struct{ Window, Rate int }

// Fast is one profile.
func Fast() Profile { return Profile{Window: 2, Rate: 1} }

// Slow is the other.
func Slow() Profile { return Profile{Rate: 5} }

// ClientConfig is set by options.
type ClientConfig struct{ Tenant string }

// Option sets a client option.
type Option func(*ClientConfig)

// WithTenant is an option closure: its set is a choice.
func WithTenant(t string) Option { return func(c *ClientConfig) { c.Tenant = t } }

// key is a map key and version is compared whole: their fields are read
// by the map and by ==, never by name.
type key struct{ a, b int }

type version struct{ major int }

// stripe is generic; its field is read only through the alias intStripe.
type stripe[K comparable, V any] struct{ m map[K]V }

func (s *stripe[K, V]) put(k K, v V) { s.m[k] = v }

type intStripe = stripe[int, int]

// Engine counts hits it never reads.
type Engine struct {
	hits  int
	seen  map[key]int
	cache intStripe
	ver   version
}

// Run exercises every case.
func Run(p Policy, pr Profile, opts ...Option) int {
	e := &Engine{seen: map[key]int{{a: 1, b: 2}: 1}, cache: intStripe{m: map[int]int{}}, ver: version{major: 1}}
	e.hits++
	e.cache.put(1, 2)
	var c ClientConfig
	for _, o := range opts {
		o(&c)
	}
	p.withDefaults()
	if e.ver == (version{}) {
		return 0
	}
	return p.Cap + pr.Window + pr.Rate + len(c.Tenant) + len(e.seen) + e.cache.m[1]
}
