package list

import (
	"fmt"
	"sort"
	"sync/atomic"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

// Recovery takes a crash image's chains over where they lie. FliT keeps
// the persisted structure durably linearizable at every instant, so a
// chain found after a crash is already a valid list apart from nodes
// that were logically deleted (marked) but not yet unlinked. Recovery
// therefore leaves every surviving node in place and rewrites only the
// link words that skip dropped nodes; a quiesced image recovers with no
// persistent write and no allocation. The only nodes copied are live
// ones found off their home chain — after a crash in the middle of a
// store shard split, or in a corrupt image — and they are copied into
// fresh nodes on the chain where they belong.
//
// Each step keeps a crash at any point inside recovery recoverable to
// the same contents:
//
//   - Scan reads a chain and writes none of its links.
//   - Splice adds copies without dropping anything: each run of copies
//     points where its predecessor's link points now, and the copies are
//     fenced before the links that publish them are written.
//   - Relink only makes links skip forward over dropped nodes, so any
//     subset of its rewrites still reaches every kept node, in order.
//
// The caller fences after each step, and across chains (the store's
// shards) fences every chain's Splice before any chain's Relink drops
// the stale copies the imports replaced.

// Region is the part of the heap recovery trusts a link to point into:
// an object must lie wholly inside [Lo, Hi), the heap between its root
// region and the carried allocation watermark. A region that tracks
// claims also requires that no two objects recovery reaches share a
// word, so a chain that revisits a node (a cycle) or runs into another
// chain or a table header fails too. Either can only come from a
// corrupt image, and ruling both out keeps every chain recovery writes
// private to the goroutine that writes it.
type Region struct {
	Lo, Hi pmem.Addr
	// claimed holds one bit per word of [Lo, Hi); nil when the region
	// checks bounds only.
	claimed []uint64
}

// HeapRegion returns h's region — its first allocatable word up to its
// watermark, capped at the memory's size — tracking claims if track is
// set. Safe for concurrent Claims.
func HeapRegion(h *pheap.Heap, track bool) *Region {
	hi := h.Watermark()
	if w := uint64(h.Mem().Words()); hi > w {
		hi = w
	}
	r := &Region{Lo: pmem.Addr(h.Base()), Hi: pmem.Addr(hi)}
	if track && r.Hi > r.Lo {
		r.claimed = make([]uint64, (r.Hi-r.Lo+63)/64)
	}
	return r
}

// Holds reports whether an object of n words at a lies inside r.
func (r *Region) Holds(a pmem.Addr, n int) bool {
	return a >= r.Lo && a < r.Hi && uint64(r.Hi-a) >= uint64(n)
}

// Claim records that recovery reached the n-word object at a. It fails
// if the object leaves r or, when r tracks claims, overlaps an object
// claimed before.
func (r *Region) Claim(a pmem.Addr, n int) error {
	if !r.Holds(a, n) {
		return fmt.Errorf("object %#x+%d outside the heap [%#x,%#x)", a, n, r.Lo, r.Hi)
	}
	if r.claimed == nil {
		return nil
	}
	for off, left := uint64(a-r.Lo), uint64(n); left > 0; {
		bit := off % 64
		k := min(left, 64-bit)
		mask := (^uint64(0) >> (64 - k)) << bit
		w := &r.claimed[off/64]
		for {
			old := atomic.LoadUint64(w)
			if old&mask != 0 {
				return fmt.Errorf("object %#x+%d reached twice", a, n)
			}
			if atomic.CompareAndSwapUint64(w, old, old|mask) {
				break
			}
		}
		off += k
		left -= k
	}
	return nil
}

// Survivor is an unmarked node a recovery scan found.
type Survivor struct {
	Addr     pmem.Addr
	Key, Val uint64
}

// Counts tallies one recovery.
type Counts struct {
	// Keys is the number of pairs present after recovery.
	Keys int
	// Relinked is the number of link words rewritten.
	Relinked int
	// Moved is the number of keys copied into fresh nodes.
	Moved int
}

// settler clears what a crash leaves on a word that recovery keeps but
// that no p-store owns any more: link-and-persist's dirty bit, and under
// flit-adjacent the word's flit-counter (the word after it), which
// persists at 1 whenever its line drained in the middle of a p-store.
// Either would make every later p-load of the word flush. Volatile
// stores suffice: a crash before the line drains again leaves the same
// image, which the next recovery settles the same way.
type settler struct {
	lap, adjacent bool
}

func settlerFor(cfg *dstruct.Config) settler {
	_, lap := cfg.Policy.(core.LinkAndPersist)
	return settler{lap: lap, adjacent: cfg.Stride == core.AdjacentStride}
}

// word returns a's logical value, settling it when keep is set.
//
//flit:rawpersist volatile-only reset of flush metadata on a word recovery keeps
func (s settler) word(t *pmem.Thread, a pmem.Addr, keep bool) uint64 {
	mem := t.M
	v := mem.VolatileWord(a)
	if s.lap && v&core.DirtyBit != 0 {
		v &^= core.DirtyBit
		if keep {
			t.Store(a, v)
		}
	}
	if keep && s.adjacent && mem.VolatileWord(a+1) != 0 {
		t.Store(a+1, 0)
	}
	return v
}

// Scan walks the chain rooted at the link word head. It appends to kept,
// in chain order, the unmarked nodes that stay where they are: home(key)
// holds (nil means every key belongs here) and the key is above every
// node kept before it. The other unmarked nodes — on the wrong chain, or
// below a key already kept — are appended to strays, for the caller to
// copy where they belong; a node repeating a kept key is dropped, so the
// first copy on a chain wins. dirty reports whether any node is dropped,
// that is, whether Relink has links to rewrite.
//
// Scan claims every node it reaches in r and returns an error when a
// claim fails (see Region) or a node holds a key outside the key space.
// Its only writes are volatile settling stores on the head and the kept
// nodes' fields.
func Scan(cfg *dstruct.Config, t *pmem.Thread, r *Region, head pmem.Addr, home func(uint64) bool, kept, strays []Survivor) (_, _ []Survivor, dirty bool, err error) {
	s := settlerFor(cfg)
	nw := cfg.Words(NumFields)
	first := len(kept)
	raw := s.word(t, head, true)
	dirty = !cleanLink(raw)
	curr := dstruct.Ptr(raw)
	for curr != pmem.NilAddr {
		if err := r.Claim(curr, nw); err != nil {
			return kept, strays, dirty, fmt.Errorf("list: chain at %#x: %w", head, err)
		}
		nextRaw := s.word(t, cfg.Field(curr, fNext), false)
		if dstruct.Marked(nextRaw) {
			dirty = true
			curr = dstruct.Ptr(nextRaw)
			continue
		}
		k := s.word(t, cfg.Field(curr, fKey), false)
		if k >= dstruct.KeyMax {
			return kept, strays, dirty, fmt.Errorf("list: node %#x holds key %#x, outside the key space", curr, k)
		}
		n := Survivor{Addr: curr, Key: k, Val: s.word(t, cfg.Field(curr, fVal), false)}
		switch {
		case home != nil && !home(k):
			strays = append(strays, n)
			dirty = true
		case len(kept) == first || k > kept[len(kept)-1].Key:
			if s.lap || s.adjacent {
				for f := 0; f < NumFields; f++ {
					s.word(t, cfg.Field(curr, f), true)
				}
			}
			kept = append(kept, n)
			dirty = dirty || !cleanLink(nextRaw)
		case holds(kept[first:], k):
			dirty = true
		default:
			strays = append(strays, n)
			dirty = true
		}
		curr = dstruct.Ptr(nextRaw)
	}
	return kept, strays, dirty, nil
}

// cleanLink reports whether an unmarked link word holds nothing but its
// pointer; Relink rewrites one carrying stray high bits, which no list
// operation could CAS against.
func cleanLink(raw uint64) bool { return raw == uint64(dstruct.Ptr(raw)) }

// holds reports whether the key-sorted survivors hold key.
func holds(sorted []Survivor, key uint64) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Key >= key })
	return i < len(sorted) && sorted[i].Key == key
}

// Splice links fresh copies of pairs into the chain rooted at head, whose
// Scan returned kept. pairs must be sorted by key; a pair whose key is
// already kept, or repeats the previous pair's key, is skipped (the node
// in place, or the earlier pair, wins). Each run of copies lands right
// after the kept node below it, the run's last copy pointing where that
// node's link points now, so splicing drops nothing. The copies are
// flushed and fenced before the links publishing them are stored and
// flushed; the caller fences those. Splice returns how many copies it
// made.
//
//flit:rawpersist single-threaded recovery: copies are fenced before the links that publish them
func Splice(cfg *dstruct.Config, t *pmem.Thread, ar *pheap.Arena, head pmem.Addr, kept, pairs []Survivor) int {
	s := settlerFor(cfg)
	mem := t.M
	nw := cfg.Words(NumFields)
	type link struct {
		addr pmem.Addr
		val  uint64
	}
	var pub []link
	made := 0
	i := 0
	for j := 0; j < len(pairs); {
		k := pairs[j].Key
		for i < len(kept) && kept[i].Key < k {
			i++
		}
		if (i < len(kept) && kept[i].Key == k) || (j > 0 && pairs[j-1].Key == k) {
			j++
			continue
		}
		// The run: every pair below the next kept key, deduplicated.
		end := j + 1
		for end < len(pairs) && (i == len(kept) || pairs[end].Key < kept[i].Key) {
			end++
		}
		pred := head
		if i > 0 {
			pred = cfg.Field(kept[i-1].Addr, fNext)
		}
		next := uint64(dstruct.Ptr(mem.VolatileWord(pred)))
		for r := end - 1; r >= j; r-- {
			if r > j && pairs[r-1].Key == pairs[r].Key {
				continue
			}
			n := ar.Alloc(nw)
			for f, v := range [NumFields]uint64{fKey: pairs[r].Key, fVal: pairs[r].Val, fNext: next} {
				t.Store(cfg.Field(n, f), v)
				if s.adjacent {
					t.Store(cfg.Field(n, f)+1, 0)
				}
			}
			for a := n; a < n+pmem.Addr(nw); a = (a + pmem.WordsPerLine) &^ (pmem.WordsPerLine - 1) {
				t.PWB(a)
			}
			next = uint64(n)
			made++
		}
		pub = append(pub, link{pred, next})
		j = end
	}
	if made > 0 {
		t.PFence()
	}
	for _, l := range pub {
		t.Store(l.addr, l.val)
		t.PWB(l.addr)
	}
	return made
}

// Relink rewrites the chain rooted at head to hold exactly kept, its
// Scan result: each link that does not already point at the next kept
// node is stored and flushed; the caller fences. Every rewrite skips
// forward over dropped nodes only, so a crash that persists any subset
// of them still reaches every kept node, in order. It returns the number
// of link words rewritten.
//
//flit:rawpersist single-threaded recovery: rewritten links are flushed here and fenced by the caller
func Relink(cfg *dstruct.Config, t *pmem.Thread, head pmem.Addr, kept []Survivor) int {
	mem := t.M
	n := 0
	link := head
	for i := 0; i <= len(kept); i++ {
		want := uint64(pmem.NilAddr)
		if i < len(kept) {
			want = uint64(kept[i].Addr)
		}
		if mem.VolatileWord(link) != want {
			t.Store(link, want)
			t.PWB(link)
			n++
		}
		if i < len(kept) {
			link = cfg.Field(kept[i].Addr, fNext)
		}
	}
	return n
}

// RecoverAt recovers the single chain rooted at head in place: Scan,
// Splice the strays back in key order, Relink, fencing after each step.
//
//flit:rawpersist single-threaded recovery fences between its splice, publish and relink steps
func RecoverAt(cfg *dstruct.Config, t *pmem.Thread, r *Region, head pmem.Addr) (Counts, error) {
	var c Counts
	kept, strays, dirty, err := Scan(cfg, t, r, head, nil, nil, nil)
	if err != nil {
		return c, err
	}
	if len(strays) > 0 {
		sort.SliceStable(strays, func(i, j int) bool { return strays[i].Key < strays[j].Key })
		ar := cfg.Heap.NewArena()
		c.Moved = Splice(cfg, t, ar, head, kept, strays)
		ar.Release()
		t.PFence()
		if kept, _, _, err = Scan(cfg, t, HeapRegion(cfg.Heap, false), head, nil, kept[:0], strays[:0]); err != nil {
			return c, err
		}
	}
	if dirty {
		if c.Relinked = Relink(cfg, t, head, kept); c.Relinked > 0 {
			t.PFence()
		}
	}
	c.Keys = len(kept)
	return c, nil
}

// Recover takes over the list persisted at cfg's root slot in place (see
// RecoverAt) and attaches it. cfg.Heap must be a pheap.Recover heap over
// the crash image. A corrupt image panics; the store's Recover is the
// boundary that reports one as an error.
func Recover(cfg dstruct.Config) *List {
	t := cfg.Heap.Mem().RegisterThread()
	defer t.Release()
	if _, err := RecoverAt(&cfg, t, HeapRegion(cfg.Heap, true), cfg.Root()); err != nil {
		panic(err)
	}
	return Attach(cfg)
}
