package lsm

import (
	"bytes"
	"math/rand"
)

// skipList is the MemTable's ordered index: a classic probabilistic skip
// list over byte-string keys, supporting insert-or-replace, point lookup
// and in-order iteration (needed when the memtable is flushed to an
// SSTable).
const (
	maxHeight  = 12
	branchProb = 4 // 1/4 promotion probability
)

type skipNode struct {
	key   []byte
	value []byte
	next  []*skipNode
}

type skipList struct {
	head   *skipNode
	height int
	bytes  int // approximate memory footprint of keys+values
	rng    *rand.Rand
}

func newSkipList(seed int64) *skipList {
	return &skipList{
		head:   &skipNode{next: make([]*skipNode, maxHeight)},
		height: 1,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

func (s *skipList) randomHeight() int {
	h := 1
	for h < maxHeight && s.rng.Intn(branchProb) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= target and fills
// prev with the rightmost node before it at every level.
func (s *skipList) findGreaterOrEqual(key []byte, prev []*skipNode) *skipNode {
	x := s.head
	for level := s.height - 1; level >= 0; level-- {
		for x.next[level] != nil && bytes.Compare(x.next[level].key, key) < 0 {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// set inserts or replaces a key.
func (s *skipList) set(key, value []byte) {
	prev := make([]*skipNode, maxHeight)
	for i := range prev {
		prev[i] = s.head
	}
	if n := s.findGreaterOrEqual(key, prev); n != nil && bytes.Equal(n.key, key) {
		s.bytes += len(value) - len(n.value)
		n.value = value
		return
	}
	h := s.randomHeight()
	if h > s.height {
		s.height = h
	}
	n := &skipNode{key: key, value: value, next: make([]*skipNode, h)}
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	s.bytes += len(key) + len(value) + 48 // node overhead estimate
}

// get returns (value, present).
func (s *skipList) get(key []byte) ([]byte, bool) {
	n := s.findGreaterOrEqual(key, nil)
	if n != nil && bytes.Equal(n.key, key) {
		return n.value, true
	}
	return nil, false
}

// each walks entries in key order.
func (s *skipList) each(fn func(key, value []byte) bool) {
	for n := s.head.next[0]; n != nil; n = n.next[0] {
		if !fn(n.key, n.value) {
			return
		}
	}
}
