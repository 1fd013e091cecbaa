package store_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"flit/internal/core"
	"flit/internal/pmem"
	"flit/internal/store"
)

// fuzzImage is a crash image of a small store plus what recovering it
// needs.
type fuzzImage struct {
	img  []uint64
	wm   uint64
	cfg  pmem.Config
	opts store.Options
}

// fuzzImages builds the DropUnfenced images FuzzStoreRecover corrupts: a
// quiesced store, a store torn by a session crash mid-delete, and a store
// crashed in the middle of a shard split.
func fuzzImages(f *testing.F) []fuzzImage {
	build := func(tear, split bool) fuzzImage {
		st, err := store.New(store.Options{
			Shards: 2, ExpectedKeys: 64, Buckets: 4, MemWords: 1 << 15,
			Policy: core.PolicyHT, HTBytes: 1 << 12, VirtualClock: true,
		})
		if err != nil {
			f.Fatal(err)
		}
		sess := store.Open[string](st, store.Direct)
		for i := 0; i < 40; i++ {
			sess.Put(fmt.Sprintf("fz-%d", i), uint64(i))
		}
		if tear {
			sess.Thread().SetCrashAfter(90)
			pmem.RunToCrash(func() {
				for i := 0; ; i++ {
					sess.Delete(fmt.Sprintf("fz-%d", i%40))
				}
			})
		} else {
			sess.Close()
		}
		if split {
			if err := st.Split(3); err != nil {
				f.Fatal(err)
			}
			st.Mem().ArmCrash()
			st.WaitSplit()
		}
		img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
		st.Mem().DisarmCrash()
		return fuzzImage{img: img, wm: st.Heap().Watermark(), cfg: st.Mem().Config(), opts: st.Opts()}
	}
	return []fuzzImage{build(false, false), build(true, false), build(false, true)}
}

// fuzzEdit encodes one corruption: overwrite word a with v.
func fuzzEdit(a uint16, v uint64) []byte {
	b := binary.LittleEndian.AppendUint16(nil, a)
	return binary.LittleEndian.AppendUint64(b, v)
}

// FuzzStoreRecover overwrites words of small crash images and recovers
// them: Recover must return a store or an error — never panic or hang —
// and a store it returns must hold exactly the keys it reports and stay
// operational.
func FuzzStoreRecover(f *testing.F) {
	images := fuzzImages(f)
	// Seeds aimed at the layout: the superblock (root slot 0 = word 8),
	// shard 0's table header (root slot 1 = word 10), its first bucket
	// head and the first node on it.
	q := images[0].img
	sb, hdr := uint16(q[8]), uint16(q[10])
	head := hdr + 1
	for q[head] == 0 {
		head++
	}
	node := uint16(q[head])
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(2), []byte{})
	f.Add(uint8(0), fuzzEdit(node+2, uint64(node)))           // a node linking to itself
	f.Add(uint8(0), fuzzEdit(node+2, uint64(hdr)))            // a chain running into a header
	f.Add(uint8(0), fuzzEdit(head, 1<<20))                    // a link past the watermark
	f.Add(uint8(0), fuzzEdit(node, 1<<50))                    // a key outside the key space
	f.Add(uint8(0), fuzzEdit(node+2, q[node+2]|core.MarkBit)) // a deleted node
	f.Add(uint8(0), fuzzEdit(hdr, 3))                         // a bucket count that is no power of two
	f.Add(uint8(0), fuzzEdit(sb+2, 1<<30))                    // a superblock bucket count past the heap
	f.Add(uint8(0), fuzzEdit(10, 0))                          // a shard anchor that never persisted
	f.Add(uint8(2), fuzzEdit(sb+4, 9))                        // a split target with no room for it
	f.Fuzz(func(t *testing.T, which uint8, edits []byte) {
		im := images[int(which)%len(images)]
		img := append([]uint64(nil), im.img...)
		for n := 0; len(edits) >= 10 && n < 16; n++ {
			img[int(binary.LittleEndian.Uint16(edits))%len(img)] = binary.LittleEndian.Uint64(edits[2:])
			edits = edits[10:]
		}
		st, rs, err := store.Recover(pmem.NewFromImage(img, im.cfg), im.wm, im.opts)
		if err != nil {
			return
		}
		if n := len(st.Snapshot()); n != rs.Keys {
			t.Fatalf("recovered store holds %d keys, recovery reported %d", n, rs.Keys)
		}
		sess := store.Open[string](st, store.Direct)
		defer sess.Close()
		sess.Put("fz-probe", 7)
		if v, ok := sess.Get("fz-probe"); !ok || v != 7 {
			t.Fatalf("recovered store lost a fresh Put: (%d,%v)", v, ok)
		}
	})
}
