package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"flexlog/internal/ssd"
)

// SSTable layout on the simulated SSD (one file per table):
//
//	data:    [u32 klen][key][u32 vlen][value]...
//	index:   [u32 klen][key][u64 offset]...   (every indexInterval-th key)
//	bloom:   [u32 k][u32 nwords][words...]
//	footer:  [u64 dataLen][u64 indexLen][u64 bloomLen][u64 count][u32 magic]
//
// Readers keep the (small) index and bloom filter in memory and issue one
// device read per lookup, as RocksDB does for its block reads.

const (
	sstMagic      = 0x4C534D31 // "LSM1"
	indexInterval = 16
	footerSize    = 8*4 + 4
)

type indexEntry struct {
	key    []byte
	offset uint64
}

// sstable is an open (readable) table.
type sstable struct {
	name    string
	dev     *ssd.Device
	index   []indexEntry
	bloom   *bloomFilter
	dataLen uint64
}

// writeSSTable serializes sorted (key,value) pairs into a new table file and syncs it.
func writeSSTable(dev *ssd.Device, name string, keys, values [][]byte) (*sstable, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("lsm: empty sstable")
	}
	var data, index bytes.Buffer
	bloom := newBloomFilter(len(keys))
	var idx []indexEntry
	for i, k := range keys {
		off := uint64(data.Len())
		if i%indexInterval == 0 {
			writeBytes(&index, k)
			var ob [8]byte
			binary.LittleEndian.PutUint64(ob[:], off)
			index.Write(ob[:])
			idx = append(idx, indexEntry{key: k, offset: off})
		}
		bloom.add(k)
		writeBytes(&data, k)
		v := values[i]
		var vb [4]byte
		binary.LittleEndian.PutUint32(vb[:], uint32(len(v)))
		data.Write(vb[:])
		data.Write(v)
	}
	var bloomBuf bytes.Buffer
	var kb [4]byte
	binary.LittleEndian.PutUint32(kb[:], uint32(bloom.k))
	bloomBuf.Write(kb[:])
	binary.LittleEndian.PutUint32(kb[:], uint32(len(bloom.bits)))
	bloomBuf.Write(kb[:])
	for _, w := range bloom.bits {
		var wb [8]byte
		binary.LittleEndian.PutUint64(wb[:], w)
		bloomBuf.Write(wb[:])
	}
	footer := make([]byte, footerSize)
	binary.LittleEndian.PutUint64(footer[0:8], uint64(data.Len()))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(index.Len()))
	binary.LittleEndian.PutUint64(footer[16:24], uint64(bloomBuf.Len()))
	binary.LittleEndian.PutUint64(footer[24:32], uint64(len(keys)))
	binary.LittleEndian.PutUint32(footer[32:36], sstMagic)

	if err := dev.Create(name); err != nil {
		return nil, err
	}
	for _, part := range [][]byte{data.Bytes(), index.Bytes(), bloomBuf.Bytes(), footer} {
		if _, err := dev.Append(name, part); err != nil {
			return nil, err
		}
	}
	if err := dev.Sync(name); err != nil {
		return nil, err
	}
	return &sstable{
		name: name, dev: dev, index: idx, bloom: bloom,
		dataLen: uint64(data.Len()),
	}, nil
}

func writeBytes(buf *bytes.Buffer, b []byte) {
	var lb [4]byte
	binary.LittleEndian.PutUint32(lb[:], uint32(len(b)))
	buf.Write(lb[:])
	buf.Write(b)
}

// openSSTable loads a table's index and bloom filter from the device.
func openSSTable(dev *ssd.Device, name string) (*sstable, error) {
	size, err := dev.Size(name)
	if err != nil {
		return nil, err
	}
	if size < footerSize {
		return nil, fmt.Errorf("lsm: table %s too small", name)
	}
	footer := make([]byte, footerSize)
	if err := dev.ReadAt(name, size-footerSize, footer); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(footer[32:36]) != sstMagic {
		return nil, fmt.Errorf("lsm: table %s bad magic", name)
	}
	dataLen := binary.LittleEndian.Uint64(footer[0:8])
	indexLen := binary.LittleEndian.Uint64(footer[8:16])
	bloomLen := binary.LittleEndian.Uint64(footer[16:24])

	if dataLen+indexLen+bloomLen+footerSize != uint64(size) {
		return nil, fmt.Errorf("lsm: table %s sections (%d+%d+%d+%d) disagree with size %d",
			name, dataLen, indexLen, bloomLen, footerSize, size)
	}
	indexBuf := make([]byte, indexLen)
	if err := dev.ReadAt(name, int64(dataLen), indexBuf); err != nil {
		return nil, err
	}
	var idx []indexEntry
	for off := 0; off < len(indexBuf); {
		if off+4 > len(indexBuf) {
			return nil, fmt.Errorf("lsm: table %s index truncated", name)
		}
		klen := int(binary.LittleEndian.Uint32(indexBuf[off : off+4]))
		off += 4
		if klen < 0 || off+klen+8 > len(indexBuf) {
			return nil, fmt.Errorf("lsm: table %s index entry overruns", name)
		}
		key := append([]byte(nil), indexBuf[off:off+klen]...)
		off += klen
		dataOff := binary.LittleEndian.Uint64(indexBuf[off : off+8])
		off += 8
		if dataOff > dataLen {
			return nil, fmt.Errorf("lsm: table %s index offset %d beyond data %d", name, dataOff, dataLen)
		}
		idx = append(idx, indexEntry{key: key, offset: dataOff})
	}
	if bloomLen < 8 {
		return nil, fmt.Errorf("lsm: table %s bloom section truncated", name)
	}
	bloomBuf := make([]byte, bloomLen)
	if err := dev.ReadAt(name, int64(dataLen+indexLen), bloomBuf); err != nil {
		return nil, err
	}
	k := int(binary.LittleEndian.Uint32(bloomBuf[0:4]))
	nwords := int(binary.LittleEndian.Uint32(bloomBuf[4:8]))
	if nwords < 0 || uint64(8+nwords*8) > bloomLen {
		return nil, fmt.Errorf("lsm: table %s bloom words %d overrun section %d", name, nwords, bloomLen)
	}
	words := make([]uint64, nwords)
	for i := 0; i < nwords; i++ {
		words[i] = binary.LittleEndian.Uint64(bloomBuf[8+i*8 : 16+i*8])
	}
	return &sstable{
		name: name, dev: dev, index: idx,
		bloom: bloomFromBits(words, k), dataLen: dataLen,
	}, nil
}

// get looks a key up: bloom check, index binary search, then one block
// read and scan.
func (t *sstable) get(key []byte) (value []byte, found bool, err error) {
	if !t.bloom.mayContain(key) {
		return nil, false, nil
	}
	// Find the last index entry with key <= target.
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].key, key) > 0
	}) - 1
	if i < 0 {
		return nil, false, nil
	}
	start := t.index[i].offset
	end := t.dataLen
	if i+1 < len(t.index) {
		end = t.index[i+1].offset
	}
	block := make([]byte, end-start)
	if err := t.dev.ReadAt(t.name, int64(start), block); err != nil {
		return nil, false, err
	}
	for off := 0; off < len(block); {
		k, v, next, ok := decodeEntryAt(block, off)
		if !ok {
			return nil, false, fmt.Errorf("lsm: table %s has a corrupt data block at %d", t.name, start+uint64(off))
		}
		if bytes.Equal(k, key) {
			return append([]byte(nil), v...), true, nil
		}
		off = next
	}
	return nil, false, nil
}

// decodeEntryAt parses one data-block entry with full bounds checking.
func decodeEntryAt(block []byte, off int) (key, value []byte, next int, ok bool) {
	if off+4 > len(block) {
		return nil, nil, 0, false
	}
	klen := int(binary.LittleEndian.Uint32(block[off : off+4]))
	off += 4
	if klen < 0 || off+klen+4 > len(block) {
		return nil, nil, 0, false
	}
	key = block[off : off+klen]
	off += klen
	dlen := int(binary.LittleEndian.Uint32(block[off : off+4]))
	off += 4
	if dlen < 0 || off+dlen > len(block) {
		return nil, nil, 0, false
	}
	value = block[off : off+dlen]
	return key, value, off + dlen, true
}

// each streams all entries of the table in key order (used by compaction).
func (t *sstable) each(fn func(key, value []byte) error) error {
	raw := make([]byte, t.dataLen)
	if err := t.dev.ReadAt(t.name, 0, raw); err != nil {
		return err
	}
	for off := 0; off < len(raw); {
		key, value, next, ok := decodeEntryAt(raw, off)
		if !ok {
			return fmt.Errorf("lsm: table %s has a corrupt data block at %d", t.name, off)
		}
		if err := fn(key, value); err != nil {
			return err
		}
		off = next
	}
	return nil
}
