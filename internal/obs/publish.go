package obs

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// Publish registers a component's Stats snapshot with the registry, so
// that /metrics and Stats() read one computation: each tagged numeric
// field of the struct fn returns becomes one func-backed family instance
// whose value is that field of fn()'s snapshot at scrape time. A scrape
// (one WritePrometheus or Samples call) calls fn once, however many
// fields it publishes, so every series of the component reads the same
// instant.
//
// Struct tags say how a field is published:
//
//   - obs:"flexlog_tier_ops_total{op=put}" gives the family name and the
//     field's own labels (added to labels);
//   - help:"…" gives the HELP text;
//   - a name ending in _total is a counter, any other name a gauge;
//   - obs:"{tier=ssd}" on a nested struct adds its labels to every field
//     inside it (a nested struct without a tag is walked as it is);
//   - obs:"-" leaves the field, or the nested struct, unpublished.
//
// A numeric field with no obs tag, or a malformed tag, is a programming
// error and panics, like a family registered under two kinds. No-op on a
// nil registry.
func Publish[T any](r *Registry, labels Labels, fn func() T) {
	if r == nil {
		return
	}
	src := &snapshot{take: func() reflect.Value { return reflect.ValueOf(fn()) }}
	publishFields(r, reflect.TypeFor[T](), nil, labels, func(s scrape, idx []int) reflect.Value {
		return s.of(src).FieldByIndex(idx)
	})
}

// snapshot is one component published by Publish: take returns its
// Stats struct.
type snapshot struct{ take func() reflect.Value }

// scrape is one WritePrometheus or Samples call. The func-backed series
// read their values through it, so it takes each published component's
// snapshot once, on first use.
type scrape map[*snapshot]reflect.Value

func (s scrape) of(src *snapshot) reflect.Value {
	v, ok := s[src]
	if !ok {
		v = src.take()
		s[src] = v
	}
	return v
}

// publishFields registers the fields of struct type t, found at index
// path idx of the published struct, under labels.
func publishFields(r *Registry, t reflect.Type, idx []int, labels Labels, field func(scrape, []int) reflect.Value) {
	for i := range t.NumField() {
		f := t.Field(i)
		tag := f.Tag.Get("obs")
		if tag == "-" {
			continue
		}
		name, lb := parseTag(tag, labels)
		path := append(slices.Clip(idx), i)
		switch kind := f.Type.Kind(); {
		case kind == reflect.Struct:
			publishFields(r, f.Type, path, lb, field)
		case kind < reflect.Int || kind > reflect.Float64:
			// Neither a number nor a struct: nothing to publish.
		case name == "":
			panic(fmt.Sprintf("obs: %v.%s has no obs tag (name the family or mark it obs:\"-\")", t, f.Name))
		case strings.HasSuffix(name, "_total"):
			r.counterFunc(name, f.Tag.Get("help"), lb, func(s scrape) uint64 {
				v := field(s, path)
				if v.CanUint() {
					return v.Uint()
				}
				return uint64(v.Int())
			})
		default:
			r.gaugeFunc(name, f.Tag.Get("help"), lb, func(s scrape) float64 {
				switch v := field(s, path); {
				case v.CanUint():
					return float64(v.Uint())
				case v.CanInt():
					return float64(v.Int())
				default:
					return v.Float()
				}
			})
		}
	}
}

// parseTag splits an obs tag "name{k=v,...}" into the family name and the
// labels it adds to base (a copy; base is not modified).
func parseTag(tag string, base Labels) (string, Labels) {
	name, rest, braced := strings.Cut(tag, "{")
	if !braced {
		return name, base
	}
	body, ok := strings.CutSuffix(rest, "}")
	if !ok {
		panic(fmt.Sprintf("obs: malformed tag %q", tag))
	}
	lb := make(Labels, len(base)+1)
	for k, v := range base {
		lb[k] = v
	}
	for _, kv := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			panic(fmt.Sprintf("obs: malformed label %q in tag %q", kv, tag))
		}
		lb[k] = v
	}
	return name, lb
}
