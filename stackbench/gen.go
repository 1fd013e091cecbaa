package main

import (
	"math"
	"math/bits"
)

// The benchmark owns its inputs: a splitmix64 generator, a zipfian
// sampler over a precomputed CDF, a bijective scramble, and a fixed key
// spelling. None of it comes from the program, so a change to the
// program's workload package cannot change what the benchmark sends.

// rng is splitmix64: tiny state, full-period, and stable forever.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// below returns a uniform value in [0, n) (Lemire's multiply-shift).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// unit returns a uniform float64 in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf samples ranks in [0, n) with P(rank r) ∝ 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return &zipf{cdf: cdf}
}

// rank returns the smallest rank whose cumulative probability reaches a
// uniform draw.
func (z *zipf) rank(r *rng) uint64 {
	u := r.unit()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint64(lo)
}

// scramble is a bijection on [0, 2^b): hot ranks land on keys spread
// over the whole keyspace (and so over every shard) instead of the first
// few, without the collisions of a hash taken modulo n.
func scramble(x uint64, b uint) uint64 {
	mask := uint64(1)<<b - 1
	sh := b/2 + 1
	x = (x * 0x9E3779B97F4A7C15) & mask
	x ^= x >> sh
	x = (x * 0xBF58476D1CE4E5B9) & mask
	x ^= x >> sh
	return x
}

// appendKey spells key index i as "sb" plus ten decimal digits.
func appendKey(dst []byte, i uint32) []byte {
	k := [12]byte{'s', 'b'}
	for j := len(k) - 1; j >= 2; j-- {
		k[j] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, k[:]...)
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "delete"}

// op is one generated operation on key index key.
type op struct {
	kind opKind
	key  uint32
	val  uint64
}

// tagVal is the value written to key i: the key index in the high bits,
// so a read can verify that a value belongs to the key it was read from.
func tagVal(i uint32, seq uint64) uint64 { return uint64(i)<<16 | seq&0xFFFF }

// valKey recovers the key index a value was written for.
func valKey(v uint64) uint32 { return uint32(v >> 16) }

// gen produces one client's operation stream.
type gen struct {
	w      *workload
	r      rng
	z      *zipf
	keyLo  uint32 // first key index the stream targets
	keyN   uint64 // number of keys the stream targets (a power of two)
	keyLog uint
	seq    uint64
}

// newGen returns client c's stream for seed. The same (workload, seed,
// client) always yields the same operations.
func newGen(w *workload, seed int64, c int) *gen {
	g := &gen{w: w, r: rng{s: uint64(seed)*0x2545F4914F6CDD1D + uint64(c)*0x9E3779B97F4A7C15}}
	g.keyLo, g.keyN = 0, uint64(w.preload)
	if w.churn > 0 {
		// Each client owns half the churn range, so the benchmark can
		// model the exact key set it leaves behind.
		half := w.churn / clients
		g.keyLo, g.keyN = uint32(w.preload+c*half), uint64(half)
	}
	g.keyLog = uint(bits.Len64(g.keyN) - 1)
	g.z = w.z
	return g
}

func (g *gen) next() op {
	g.seq++
	var idx uint64
	if g.z != nil {
		idx = scramble(g.z.rank(&g.r), g.keyLog)
	} else {
		idx = g.r.below(g.keyN)
	}
	o := op{key: g.keyLo + uint32(idx)}
	p := g.r.below(1000)
	switch {
	case p < uint64(g.w.getPermille):
		o.kind = opGet
	case p < uint64(g.w.getPermille+g.w.putPermille):
		o.kind = opPut
		o.val = tagVal(o.key, g.seq)
	default:
		o.kind = opDelete
	}
	return o
}
