// Package workload provides the load generators of the evaluation (§9):
// record-size sweeps, read/write mixtures with uniform key selection (the
// db_bench configuration of §9.1), closed-loop client drivers, and the two
// profiled serverless functions of Table 1 — a video-processing pipeline
// and a gzip-compression pipeline — instrumented to attribute CPU time to
// storage versus compute.
package workload

import (
	"fmt"
	"math/rand"
)

// RecordSizes is the record-size sweep of Fig. 5 (bytes).
var RecordSizes = []int{64, 128, 512, 1024, 2048, 4096, 8192}

// BlockSizes is the block-size sweep of Fig. 1 (bytes).
var BlockSizes = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}

// ThreadCounts is the thread sweep of Fig. 6.
var ThreadCounts = []int{1, 2, 4, 6, 8, 10, 12}

// ReadPercents is the R/W-ratio sweep of Fig. 7 (percent reads).
var ReadPercents = []int{0, 25, 50, 75, 90, 95, 99}

// Payload returns a deterministic pseudo-random record of n bytes: random
// enough to defeat trivial compression, reproducible across runs.
func Payload(n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

// Mix decides reads vs writes with the given read percentage.
type Mix struct {
	ReadPercent int
	rng         *rand.Rand
}

// NewMix creates a deterministic mix generator.
func NewMix(readPercent int, seed int64) *Mix {
	return &Mix{ReadPercent: readPercent, rng: rand.New(rand.NewSource(seed))}
}

// NextIsRead reports whether the next operation should be a read.
func (m *Mix) NextIsRead() bool {
	return m.rng.Intn(100) < m.ReadPercent
}

// UniformKeys generates uniformly distributed keys over [0, n) — the
// "uniform index distribution" db_bench setting of §9.1.
type UniformKeys struct {
	N   int
	rng *rand.Rand
}

// NewUniformKeys creates a deterministic uniform key generator.
func NewUniformKeys(n int, seed int64) *UniformKeys {
	return &UniformKeys{N: n, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next key index.
func (u *UniformKeys) Next() int { return u.rng.Intn(u.N) }

// Key renders a key index as a fixed-width byte key.
func Key(i int) []byte { return []byte(fmt.Sprintf("key-%012d", i)) }
