package pmem

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"flexlog/internal/durable"
)

// File persistence for the simulated PM device: the arena is snapshotted
// to a file so a multi-process deployment (cmd/flexlog-server) preserves
// its "persistent memory" across process restarts — standing in for the
// DAX-mapped pool file a PMDK deployment would reopen.
//
// Snapshot format: [8B magic][8B size][4B crc of data][data]. Writes go
// through durable.WriteFile, so a crash mid-save leaves the previous
// snapshot intact.

const fileMagic = 0x464C504D454D3100 // "FLPMEM1\0"

// SaveTo atomically snapshots the arena to path.
func (p *Pool) SaveTo(path string) error {
	p.mu.RLock()
	data := make([]byte, len(p.data))
	copy(data, p.data)
	p.mu.RUnlock()

	buf := make([]byte, 20+len(data))
	binary.LittleEndian.PutUint64(buf[0:8], fileMagic)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(data)))
	binary.LittleEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(data))
	copy(buf[20:], data)

	return durable.WriteFile(path, buf, 0o600)
}

// LoadFrom restores a pool from a snapshot file. The pool adopts the
// snapshot's size and the given latency model. In-flight transactions do
// not exist in a snapshot (SaveTo captures committed arena contents; undo
// logs of live transactions are process state, so a process crash between
// transactional stores and SaveTo behaves like a PM crash without
// recovery — callers snapshot at quiescent points).
func LoadFrom(path string, model LatencyModel) (*Pool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 20 {
		return nil, fmt.Errorf("pmem: snapshot %s truncated", path)
	}
	if binary.LittleEndian.Uint64(raw[0:8]) != fileMagic {
		return nil, fmt.Errorf("pmem: %s is not a pmem snapshot", path)
	}
	size := binary.LittleEndian.Uint64(raw[8:16])
	crc := binary.LittleEndian.Uint32(raw[16:20])
	data := raw[20:]
	if uint64(len(data)) != size {
		return nil, fmt.Errorf("pmem: snapshot %s has %d bytes, header says %d", path, len(data), size)
	}
	if crc32.ChecksumIEEE(data) != crc {
		return nil, fmt.Errorf("pmem: snapshot %s failed its checksum", path)
	}
	p := &Pool{
		data:   newArena(len(data)),
		model:  model,
		active: make(map[uint64]*Tx),
	}
	copy(p.data, data)
	return p, nil
}
