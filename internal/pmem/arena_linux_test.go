//go:build linux

package pmem

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestArenaAdvisedHuge: a pool's arena, once touched, is backed by
// transparent huge pages wherever the kernel grants them on advice.
func TestArenaAdvisedHuge(t *testing.T) {
	skipWithoutTHP(t)
	p := newTestPool(t, 64<<20)
	for i := 0; i < len(p.data); i += 4096 {
		p.data[i] = 1
	}
	m, err := smapsAt(uintptr(unsafe.Pointer(&p.data[len(p.data)/2])))
	if err != nil {
		t.Fatal(err)
	}
	var huge int
	fmt.Sscanf(m["AnonHugePages"], "%d kB", &huge)
	t.Logf("AnonHugePages of the arena's mapping: %d kB", huge)
	if huge == 0 {
		t.Fatal("a touched 64 MiB arena has no huge pages")
	}
}

// TestArenaAdviceUndoneWhenDropped: once the GC frees an arena, its range
// goes back to the heap no longer advised onto huge pages.
func TestArenaAdviceUndoneWhenDropped(t *testing.T) {
	skipWithoutTHP(t)
	p := newTestPool(t, 16<<20)
	addr := uintptr(unsafe.Pointer(&p.data[len(p.data)/2]))
	if flags := vmFlagsAt(t, addr); !slices.Contains(flags, "hg") {
		t.Fatalf("a live arena is not advised huge: VmFlags %v", flags)
	}
	p = nil
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		flags := vmFlagsAt(t, addr)
		if !slices.Contains(flags, "hg") {
			if !slices.Contains(flags, "nh") {
				t.Fatalf("dropped arena's range carries neither advice: VmFlags %v", flags)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("dropped arena's range still advised huge: VmFlags %v", flags)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func skipWithoutTHP(t *testing.T) {
	t.Helper()
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages unavailable (%q, %v)", strings.TrimSpace(string(mode)), err)
	}
}

func vmFlagsAt(t *testing.T, addr uintptr) []string {
	t.Helper()
	m, err := smapsAt(addr)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Fields(m["VmFlags"])
}

// smapsAt returns the fields ("AnonHugePages" → "512 kB", "VmFlags" →
// "rd wr … hg") of the /proc/self/smaps mapping that holds addr.
func smapsAt(addr uintptr) (map[string]string, error) {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m map[string]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var lo, hi uintptr
		if n, _ := fmt.Sscanf(line, "%x-%x", &lo, &hi); n == 2 { // a mapping's header line
			if m != nil {
				break
			}
			if lo <= addr && addr < hi {
				m = map[string]string{}
			}
			continue
		}
		if k, v, ok := strings.Cut(line, ":"); ok && m != nil {
			m[k] = strings.TrimSpace(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("no smaps mapping holds %#x", addr)
	}
	return m, nil
}
