package lsm

import (
	"testing"

	"flexlog/internal/ssd"
)

// FuzzOpenSSTable writes arbitrary bytes as a table file and opens it: the
// reader must reject or parse, never panic, over-read, or over-allocate.
func FuzzOpenSSTable(f *testing.F) {
	dev := ssd.New(ssd.Zero())
	tbl, err := writeSSTable(dev, "seed", [][]byte{[]byte("a"), []byte("b")}, [][]byte{[]byte("1"), []byte("2")})
	if err == nil {
		raw := make([]byte, tbl.dataLen)
		dev.ReadAt("seed", 0, raw)
		sz, _ := dev.Size("seed")
		full := make([]byte, sz)
		dev.ReadAt("seed", 0, full)
		f.Add(full)
	}
	f.Add([]byte{})
	f.Add(make([]byte, footerSize))
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := ssd.New(ssd.Zero())
		if _, err := d.Append("t", raw); err != nil {
			return
		}
		tbl, err := openSSTable(d, "t")
		if err != nil {
			return
		}
		// A table that opened must serve lookups without panicking.
		tbl.get([]byte("a"))
		tbl.each(func(k, v []byte) error { return nil })
	})
}
