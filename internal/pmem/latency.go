package pmem

import (
	"time"

	"flexlog/internal/simclock"
)

// LatencyModel describes the cost of device accesses as an affine function
// of the transfer size, plus an optional per-operation kernel-crossing
// overhead (the pmem-via-syscall configuration of the paper's Figure 1).
//
// The default models are calibrated so the three curves of Figure 1 keep
// their relative order and rough magnitudes:
//
//	pmem (kernel bypass)  <  pmem via syscalls  <  SSD file I/O
//
// with PM roughly an order of magnitude faster than the SSD and the
// kernel-bypass path a further large factor below the syscall path at
// small block sizes.
type LatencyModel struct {
	ReadBase    time.Duration // fixed cost per read
	ReadPerKB   time.Duration // additional cost per KiB read
	WriteBase   time.Duration // fixed cost per write
	WritePerKB  time.Duration // additional cost per KiB written
	SyscallCost time.Duration // added to every op when Syscall is set
	Syscall     bool          // model OS-mediated access instead of DAX
}

// OptaneBypass models Intel Optane DC PM accessed through kernel-bypass
// (DAX-mapped) loads and stores, as in the paper's pmem_read/pmem_write.
func OptaneBypass() LatencyModel {
	return LatencyModel{
		ReadBase:   300 * time.Nanosecond,
		ReadPerKB:  120 * time.Nanosecond,
		WriteBase:  500 * time.Nanosecond,
		WritePerKB: 250 * time.Nanosecond,
	}
}

// OptaneSyscall models the same device accessed through read()/write()
// system calls (the paper's read_syscall/write_syscall curves).
func OptaneSyscall() LatencyModel {
	m := OptaneBypass()
	m.Syscall = true
	m.SyscallCost = 1500 * time.Nanosecond
	return m
}

// Zero is the latency-free model used by unit tests.
func Zero() LatencyModel { return LatencyModel{} }

// readCost returns the modeled latency of reading n bytes.
func (m LatencyModel) readCost(n int) time.Duration {
	d := m.ReadBase + m.ReadPerKB*time.Duration(n)/1024
	if m.Syscall {
		d += m.SyscallCost
	}
	return d
}

// writeCost returns the modeled latency of writing n bytes.
func (m LatencyModel) writeCost(n int) time.Duration {
	d := m.WriteBase + m.WritePerKB*time.Duration(n)/1024
	if m.Syscall {
		d += m.SyscallCost
	}
	return d
}

// TimeOf returns the total modeled device time the counted operations
// would take — the accounting backbone of the throughput benchmarks, which
// run functionally and convert observed operation counts into modeled time
// using the same calibrated constants that latency injection uses.
func (m LatencyModel) TimeOf(s Stats) time.Duration {
	d := time.Duration(s.Reads)*m.ReadBase + m.ReadPerKB*time.Duration(s.BytesRead)/1024
	d += time.Duration(s.Writes)*m.WriteBase + m.WritePerKB*time.Duration(s.BytesWritten)/1024
	if m.Syscall {
		d += time.Duration(s.Reads+s.Writes) * m.SyscallCost
	}
	return d
}

func (m LatencyModel) waitRead(n int)  { simclock.Wait(m.readCost(n)) }
func (m LatencyModel) waitWrite(n int) { simclock.Wait(m.writeCost(n)) }
