package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
)

// splitmix is the SplitMix64 finalizer: a cheap bijective mix whose output
// words are never predictable from neighbouring inputs, so a misplaced or
// zeroed block cannot match its expected content by accident.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// pathKey names the byte stream of one path.
func pathKey(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64()
}

// versionKey names the byte stream of one version of a path's blocks.
func versionKey(path string, version uint64) uint64 {
	return pathKey(path) ^ splitmix(version)
}

// patternWord is word k (bytes 8k..8k+7) of the stream named key: a
// two-multiply mix, cheap enough that generating expected bytes stays
// small next to the calls it checks.
func patternWord(key, k uint64) uint64 {
	x := key + k*0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	return x ^ x>>32
}

// fillPattern writes bytes [off, off+len(p)) of the stream named key into
// p. Every byte is a function of (key, offset) alone, so a read at any
// offset, under any interleaving, can be checked.
func fillPattern(p []byte, key, off uint64) {
	var w [8]byte
	// Unaligned head, whole words, then the tail.
	for len(p) > 0 && (off&7 != 0 || len(p) < 8) {
		binary.LittleEndian.PutUint64(w[:], patternWord(key, off>>3))
		n := copy(p, w[off&7:])
		p, off = p[n:], off+uint64(n)
	}
	for i, k := 0, off>>3; i+8 <= len(p); i, k = i+8, k+1 {
		binary.LittleEndian.PutUint64(p[i:], patternWord(key, k))
	}
	whole := len(p) &^ 7
	p, off = p[whole:], off+uint64(whole)
	if len(p) > 0 {
		binary.LittleEndian.PutUint64(w[:], patternWord(key, off>>3))
		copy(p, w[:])
	}
}

// zipf draws ranks in [0, n) with P(rank k) proportional to 1/(k+1)^theta
// (Gray et al.'s generator, as in YCSB).
type zipf struct {
	n                   uint64
	theta, alpha, zetan float64
	eta, half           float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(n uint64) float64 {
		var s float64
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
