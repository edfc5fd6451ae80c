//go:build !linux

package pmem

// newArena allocates a pool's arena (huge-page advice is Linux-only).
func newArena(size int) []byte { return make([]byte, size) }
