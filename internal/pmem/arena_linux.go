//go:build linux

package pmem

import (
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// newArena allocates a pool's arena and advises the kernel to back it with
// transparent huge pages (MADV_HUGEPAGE over its page-aligned interior),
// as PMDK maps DAX persistent memory on 2 MiB pages: a fill then takes one
// fault per 2 MiB, not per 4 KiB. The arena stays on the Go heap, so the
// GC owns its lifetime and the race detector sees it. The advice is
// best-effort; a kernel that refuses it leaves ordinary pages.
//
// The advice is a flag on the address range, not on the arena: once the
// GC frees the arena, ordinary heap spans reuse the range. So when the
// arena becomes unreachable a finalizer advises MADV_NOHUGEPAGE over the
// same interior. Where THP runs in `madvise` mode that is the kernel's
// default; in `always` mode the range stays off huge pages. The range
// keeps a VMA of its own either way (the kernel merges it with an
// adjacent range that carries the same flag).
func newArena(size int) []byte {
	b := make([]byte, size)
	if size == 0 {
		return b
	}
	page := uintptr(os.Getpagesize())
	skip := (page - uintptr(unsafe.Pointer(&b[0]))%page) % page
	n := (uintptr(size) - min(skip, uintptr(size))) &^ (page - 1)
	if n == 0 {
		return b
	}
	interior := func(base *byte) []byte {
		return unsafe.Slice((*byte)(unsafe.Add(unsafe.Pointer(base), skip)), n)
	}
	if syscall.Madvise(interior(&b[0]), syscall.MADV_HUGEPAGE) == nil {
		runtime.SetFinalizer(&b[0], func(base *byte) {
			_ = syscall.Madvise(interior(base), syscall.MADV_NOHUGEPAGE)
		})
	}
	return b
}
