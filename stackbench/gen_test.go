package main

import (
	"math"
	"testing"
)

// TestStreamsPinned pins the first operations of seed 1 on every
// workload and client. The benchmark's inputs must not change unless
// this test changes with them.
func TestStreamsPinned(t *testing.T) {
	want := map[string][clients][]op{
		"svc-a-zipf": {
			{{opPut, 64034, 0xfa220001}, {opGet, 3506, 0}, {opPut, 0, 0x3}, {opGet, 25620, 0}, {opPut, 25620, 0x64140005}, {opGet, 97158, 0}},
			{{opPut, 107301, 0x1a3250001}, {opGet, 95321, 0}, {opGet, 39755, 0}, {opGet, 84738, 0}, {opPut, 89700, 0x15e640005}, {opPut, 0, 0x6}},
		},
		"embed-b-uniform": {
			{{opGet, 395019, 0}, {opGet, 367684, 0}, {opGet, 9242, 0}, {opGet, 116967, 0}, {opGet, 109115, 0}, {opGet, 307453, 0}},
			{{opGet, 280662, 0}, {opGet, 217116, 0}, {opGet, 494510, 0}, {opGet, 155004, 0}, {opGet, 446073, 0}, {opGet, 1189, 0}},
		},
		"embed-churn": {
			{{opPut, 90224, 0x160700001}, {opGet, 88516, 0}, {opDelete, 66113, 0}, {opGet, 72846, 0}, {opDelete, 72355, 0}, {opGet, 84751, 0}},
			{{opPut, 115845, 0x1c4850001}, {opGet, 111873, 0}, {opGet, 129210, 0}, {opGet, 107991, 0}, {opPut, 126183, 0x1ece70005}, {opDelete, 98378, 0}},
		},
	}
	for name, perClient := range want {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for c, ops := range perClient {
			g := newGen(w, 1, c)
			for i, o := range ops {
				if got := g.next(); got != o {
					t.Errorf("%s client %d op %d: got %+v, want %+v", name, c, i, got, o)
				}
			}
		}
	}
}

// TestChurnClientsOwnDisjointHalves checks the premise of the churn
// model: each client only ever touches its own half of the churn range.
func TestChurnClientsOwnDisjointHalves(t *testing.T) {
	w, err := workloadByName("embed-churn")
	if err != nil {
		t.Fatal(err)
	}
	half := uint32(w.churn / clients)
	for c := 0; c < clients; c++ {
		g := newGen(w, 7, c)
		lo := uint32(w.preload) + uint32(c)*half
		for i := 0; i < 100000; i++ {
			if k := g.next().key; k < lo || k >= lo+half {
				t.Fatalf("client %d drew key %d outside [%d, %d)", c, k, lo, lo+half)
			}
		}
	}
}

func TestAppendKey(t *testing.T) {
	if got := string(appendKey([]byte("x"), 42)); got != "xsb0000000042" {
		t.Fatalf("appendKey = %q", got)
	}
}

func TestScrambleIsABijection(t *testing.T) {
	const b = 17
	seen := make([]bool, 1<<b)
	for x := uint64(0); x < 1<<b; x++ {
		y := scramble(x, b)
		if seen[y] {
			t.Fatalf("scramble(%d) = %d collides", x, y)
		}
		seen[y] = true
	}
}

// TestZipfRankZeroShare checks the sampler against the closed form:
// P(rank 0) = 1 / Σ 1/i^s.
func TestZipfRankZeroShare(t *testing.T) {
	const n, draws = 1 << 17, 1 << 20
	z := newZipf(n, zipfS)
	norm := 0.0
	for i := 1; i <= n; i++ {
		norm += 1 / math.Pow(float64(i), zipfS)
	}
	r := rng{s: 3}
	hits := 0
	for i := 0; i < draws; i++ {
		if z.rank(&r) == 0 {
			hits++
		}
	}
	got, want := float64(hits)/draws, 1/norm
	if math.Abs(got-want) > 0.02*want {
		t.Fatalf("P(rank 0) = %.5f, want %.5f", got, want)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	var h hist
	for v := int64(1); v <= 10000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*10000
		if math.Abs(got-want) > want/subBuckets {
			t.Errorf("quantile(%v) = %.1f, want %.1f within a bucket", q, got, want)
		}
	}
}
