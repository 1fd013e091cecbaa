// Package hashtable implements the paper's fourth benchmark structure: a
// fixed-size hash table whose buckets are Harris linked lists. All list
// mechanics (marking, unlinking, durability transitions) are inherited
// from the list package; this package adds the persistent bucket array.
package hashtable

import (
	"fmt"
	"sort"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/list"
	"flit/internal/pmem"
)

// Header field indices: field 0 holds the bucket count; bucket i's head
// link is field 1+i. The whole header is persisted at construction and
// never modified afterwards.
const fCount = 0

// Table is a durable lock-free hash table.
type Table struct {
	cfg     dstruct.Config
	l       *list.List
	base    pmem.Addr
	buckets uint64
	shift   uint
}

// New creates a table with the given bucket count (rounded up to a power
// of two), anchored at cfg's root slot.
func New(cfg dstruct.Config, buckets int) *Table {
	b := core.CeilPow2(buckets)
	t := cfg.Heap.Mem().RegisterThread()
	ar := cfg.Heap.NewArena()
	base := ar.Alloc(cfg.Words(1 + b))
	pol := cfg.Policy
	pol.StorePrivate(t, cfg.Field(base, fCount), uint64(b), core.V)
	for i := 0; i < b; i++ {
		pol.StorePrivate(t, cfg.Field(base, 1+i), 0, core.V)
	}
	pol.PersistObject(t, base, cfg.Words(1+b))
	// Publishing the header is a shared p-store: its leading fence orders
	// the header contents before the root points at them.
	pol.Store(t, cfg.Root(), uint64(base), core.P)
	pol.Complete(t)
	ar.Release()
	t.Release()
	return attach(cfg, base, uint64(b))
}

// Attach wraps the table persisted at cfg's root slot (e.g. in recovered
// memory) without modifying it.
func Attach(cfg dstruct.Config) *Table {
	mem := cfg.Heap.Mem()
	base := dstruct.Ptr(mem.VolatileWord(cfg.Root()))
	b := mem.VolatileWord(cfg.Field(base, fCount))
	return attach(cfg, base, b)
}

func attach(cfg dstruct.Config, base pmem.Addr, b uint64) *Table {
	t := &Table{cfg: cfg, l: list.Attach(cfg), base: base, buckets: b}
	t.shift = 64
	for e := b; e > 1; e >>= 1 {
		t.shift--
	}
	return t
}

// Name returns "hashtable".
func (t *Table) Name() string { return "hashtable" }

// Buckets returns the bucket count.
func (t *Table) Buckets() int { return int(t.buckets) }

// Base returns the table header's persistent address — the value its
// anchor word holds. The store's shard-split directory copies it when a
// grown shard's anchor moves to a new directory object.
func (t *Table) Base() pmem.Addr { return t.base }

// bucketIdx returns the bucket index for key.
func (t *Table) bucketIdx(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// bucketHead returns the address of the bucket link word for key.
func (t *Table) bucketHead(key uint64) pmem.Addr {
	return t.head(t.bucketIdx(key))
}

// head returns the address of bucket i's link word.
func (t *Table) head(i int) pmem.Addr {
	return t.cfg.Field(t.base, 1+i)
}

// Thread is a per-goroutine handle to the table.
type Thread struct {
	t  *Table
	lt *list.Thread
}

// NewThread creates a standalone per-goroutine handle — the Set
// interface's spelling of Open(ThreadOpts{}).
func (t *Table) NewThread() dstruct.SetThread { return t.Open(dstruct.ThreadOpts{}) }

// Open creates a per-goroutine handle configured by o (see list.Open and
// dstruct.ThreadOpts): sessions that operate many shard tables from one
// goroutine pass the shared pmem thread and arena; group-commit and
// combining sessions additionally override the policy with a deferred
// wrapper.
func (t *Table) Open(o dstruct.ThreadOpts) *Thread {
	return &Thread{t: t, lt: t.l.Open(o)}
}

// Ctx exposes the thread's execution context (stats, crash injection).
func (th *Thread) Ctx() dstruct.Ctx { return th.lt.Ctx() }

// Close releases the handle's reclamation slot and any pmem thread or
// arena the handle registered itself (see list.Thread.Close). Idempotent.
func (th *Thread) Close() { th.lt.Close() }

// Insert adds key→val if absent.
func (th *Thread) Insert(key, val uint64) bool {
	return th.lt.InsertAt(th.t.bucketHead(key), key, val)
}

// Put inserts key→val, or durably overwrites the value in place when key
// is already present; it reports whether a new key was inserted.
func (th *Thread) Put(key, val uint64) bool {
	return th.lt.UpsertAt(th.t.bucketHead(key), key, val)
}

// Add atomically adds delta to key's value, inserting key→delta when
// absent (see list.AddAt for the persistence and wrap-around contract).
// It returns the post-add value and whether the key was already present.
func (th *Thread) Add(key, delta uint64) (uint64, bool) {
	return th.lt.AddAt(th.t.bucketHead(key), key, delta)
}

// Delete removes key if present.
func (th *Thread) Delete(key uint64) bool {
	return th.lt.DeleteAt(th.t.bucketHead(key), key)
}

// Contains reports whether key is present.
func (th *Thread) Contains(key uint64) bool {
	return th.lt.ContainsAt(th.t.bucketHead(key), key)
}

// Get returns the value stored under key, if present.
func (th *Thread) Get(key uint64) (uint64, bool) {
	return th.lt.GetAt(th.t.bucketHead(key), key)
}

// Snapshot reads all unmarked pairs (test helper; callers quiescent).
func (t *Table) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for i := 0; i < int(t.buckets); i++ {
		for k, v := range t.l.SnapshotAt(t.head(i)) {
			out[k] = v
		}
	}
	return out
}

// Recover takes over the table persisted at cfg's root slot in place:
// the bucket array survives as-is (it is immutable after construction)
// and each bucket chain is recovered like a list (see list.RecoverAt). A
// corrupt image panics; the store's Recover is the boundary that reports
// one as an error.
func Recover(cfg dstruct.Config) *Table {
	r, err := BeginRecover(cfg, list.HeapRegion(cfg.Heap, true), nil, 0)
	if err == nil {
		err = r.Import(r.Strays())
	}
	var tbl *Table
	if err == nil {
		tbl, _, err = r.Complete()
	}
	if err != nil {
		panic(err)
	}
	return tbl
}

// Recovery is a table recovery in three steps, so that a caller
// recovering several tables over one heap (the store's shards) can order
// them: BeginRecover scans every bucket, Import copies in the live keys
// that belong here but were found elsewhere, Complete relinks the chains.
// Import fences before it returns, and every table's Import must return
// before any table's Complete drops the stale copies it superseded.
type Recovery struct {
	cfg    dstruct.Config
	tbl    *Table
	owns   func(uint64) bool
	dirty  []int // buckets whose links change, ascending per step
	strays []list.Survivor
	n      list.Counts
}

// BeginRecover attaches the table persisted at cfg's root slot and scans
// every bucket (list.Scan), claiming the header and every node in
// region; it writes no link. owns reports whether a key belongs in this
// table (nil: every key); a key belongs in a bucket when the table owns
// it and it hashes there. buckets, when non-zero, is
// the bucket count the header must hold. A table whose anchor never
// persisted — a crash inside New, or a policy that persists nothing —
// recovers empty, built afresh with buckets buckets (at least one).
func BeginRecover(cfg dstruct.Config, region *list.Region, owns func(uint64) bool, buckets int) (*Recovery, error) {
	mem := cfg.Heap.Mem()
	r := &Recovery{cfg: cfg, owns: owns}
	base := dstruct.Ptr(mem.VolatileWord(cfg.Root()))
	if base == pmem.NilAddr {
		r.tbl = New(cfg, max(buckets, 1))
		return r, nil
	}
	if !region.Holds(base, cfg.Words(1)) {
		return nil, fmt.Errorf("hashtable: header %#x outside the heap [%#x,%#x)", base, region.Lo, region.Hi)
	}
	b := mem.VolatileWord(cfg.Field(base, fCount))
	if b == 0 || b&(b-1) != 0 || b > uint64(region.Hi-region.Lo) || (buckets != 0 && b != uint64(buckets)) {
		return nil, fmt.Errorf("hashtable: header %#x holds bucket count %d", base, b)
	}
	if err := region.Claim(base, cfg.Words(1+int(b))); err != nil {
		return nil, fmt.Errorf("hashtable: header: %w", err)
	}
	r.tbl = attach(cfg, base, b)
	t := mem.RegisterThread()
	defer t.Release()
	var kept []list.Survivor
	for i := 0; i < int(b); i++ {
		var dirty bool
		var err error
		kept, r.strays, dirty, err = r.scan(t, region, i, kept[:0], r.strays)
		if err != nil {
			return nil, err
		}
		r.n.Keys += len(kept)
		if dirty {
			r.dirty = append(r.dirty, i)
		}
	}
	return r, nil
}

// scan runs list.Scan on bucket i in region. BeginRecover claims every
// node in the caller's region; the later steps rescan chains it already
// vetted, checking bounds only against the heap's current watermark,
// which takes in the copies Import made.
func (r *Recovery) scan(t *pmem.Thread, region *list.Region, i int, kept, strays []list.Survivor) ([]list.Survivor, []list.Survivor, bool, error) {
	home := func(k uint64) bool { return r.tbl.bucketIdx(k) == i && (r.owns == nil || r.owns(k)) }
	return list.Scan(&r.cfg, t, region, r.tbl.head(i), home, kept, strays)
}

// Strays returns the live nodes BeginRecover found off their home
// bucket: on the wrong bucket or table, or out of key order. The caller
// routes each to the Import of the table that owns its key.
func (r *Recovery) Strays() []list.Survivor { return r.strays }

// Import copies pairs — keys this table owns that survived elsewhere —
// into fresh nodes on their buckets (list.Splice) and fences the links
// that publish them. A key the table already
// holds keeps its node; among pairs with one key, the earliest wins.
// Outside a crashed shard split pairs is empty and Import writes nothing.
//
//flit:rawpersist single-threaded recovery fences the links publishing its copies before returning
func (r *Recovery) Import(pairs []list.Survivor) error {
	if len(pairs) == 0 {
		return nil
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		bi, bj := r.tbl.bucketIdx(pairs[i].Key), r.tbl.bucketIdx(pairs[j].Key)
		return bi < bj || (bi == bj && pairs[i].Key < pairs[j].Key)
	})
	t := r.cfg.Heap.Mem().RegisterThread()
	defer t.Release()
	ar := r.cfg.Heap.NewArena()
	defer ar.Release()
	vetted := list.HeapRegion(r.cfg.Heap, false)
	var kept, strays []list.Survivor
	for lo := 0; lo < len(pairs); {
		b := r.tbl.bucketIdx(pairs[lo].Key)
		hi := lo + 1
		for hi < len(pairs) && r.tbl.bucketIdx(pairs[hi].Key) == b {
			hi++
		}
		var err error
		if kept, strays, _, err = r.scan(t, vetted, b, kept[:0], strays[:0]); err != nil {
			return err
		}
		made := list.Splice(&r.cfg, t, ar, r.tbl.head(b), kept, pairs[lo:hi])
		r.n.Keys += made
		r.n.Moved += made
		r.dirty = append(r.dirty, b)
		lo = hi
	}
	if r.n.Moved > 0 {
		t.PFence()
	}
	return nil
}

// Complete relinks every bucket whose chain drops a node (list.Relink)
// and fences, returning the recovered table and what recovery did.
//
//flit:rawpersist single-threaded recovery fences the rewritten links before the table is attached
func (r *Recovery) Complete() (*Table, list.Counts, error) {
	sort.Ints(r.dirty)
	t := r.cfg.Heap.Mem().RegisterThread()
	defer t.Release()
	vetted := list.HeapRegion(r.cfg.Heap, false)
	var kept, strays []list.Survivor
	for j, b := range r.dirty {
		if j > 0 && r.dirty[j-1] == b {
			continue
		}
		var err error
		if kept, strays, _, err = r.scan(t, vetted, b, kept[:0], strays[:0]); err != nil {
			return nil, r.n, err
		}
		r.n.Relinked += list.Relink(&r.cfg, t, r.tbl.head(b), kept)
	}
	if r.n.Relinked > 0 {
		t.PFence()
	}
	return r.tbl, r.n, nil
}
