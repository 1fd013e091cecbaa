package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// spanName is one boundary the benchmark records: a public call it makes
// into a layer of the program, or one of its own steps. The prefix before
// the first dot names the layer.
type spanName uint8

const (
	spBenchOp spanName = iota
	spBenchWindow
	spClientSend
	spClientFlush
	spClientWait
	spClientRecv
	spServerExec
	spStoreApply
	spStoreCommit
	spStoreGet
	spStorePut
	spStoreDelete
	spDstructGet
	spDstructPut
	spDstructDelete
	spCoreLoad
	spCoreStore
	spPmemPWB
	spPmemFence
	spPmemPWBFence
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.op", "bench.window",
	"client.Conn.Send", "client.Conn.Flush", "client.Conn.Recv.first", "client.Conn.Recv",
	"server.Batcher.Exec",
	"store.Sess.Apply", "store.Sess.Commit",
	"store.Sess.Get", "store.Sess.Put", "store.Sess.Delete",
	"dstruct.hashtable.Get", "dstruct.hashtable.Put", "dstruct.hashtable.Delete",
	"core.FliT.Load", "core.FliT.Store",
	"pmem.Thread.PWB", "pmem.Thread.PFence", "pmem.Thread.PWB+PFence",
}

// epoch anchors every timestamp the benchmark takes; time.Since on it
// reads only the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one recorded call: start and end in ns since epoch, the index
// of the span that caused it in the same tracer (-1 for a root), the
// request it belongs to, and how many calls it covers (a timed block of
// n identical calls is one span).
type span struct {
	name       spanName
	parent     int32
	calls      uint32
	req        uint64
	start, end int64
}

// tracer records one goroutine's spans in memory. Counts and total
// durations are exhaustive; spans are kept for one request in every
// `every`, up to the preallocated capacity.
type tracer struct {
	id      int
	every   uint64
	sampled bool
	req     uint64
	spans   []span
	calls   [numSpanNames]uint64
	totalNs [numSpanNames]int64
}

// spanSampleEvery is the span sampling rate: the spans of one request in
// this many are kept.
const spanSampleEvery = 128

// newTracer returns a tracer for goroutine id that keeps at most
// maxSpans spans.
func newTracer(id, maxSpans int) *tracer {
	return &tracer{id: id, every: spanSampleEvery, spans: make([]span, 0, maxSpans)}
}

// request starts request id; its spans are kept if it is sampled and a
// whole request's worth of room is left.
func (t *tracer) request(id uint64) {
	t.req = id
	t.sampled = id%t.every == 0 && len(t.spans)+64 <= cap(t.spans)
}

// open starts a span whose end is not yet known.
func (t *tracer) open(name spanName, parent int32, start int64) int32 {
	if !t.sampled {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, calls: 1, req: t.req, start: start})
	return int32(len(t.spans) - 1)
}

// close ends a span started by open.
func (t *tracer) close(i int32, name spanName, start, end int64) {
	t.calls[name]++
	t.totalNs[name] += end - start
	if i >= 0 {
		t.spans[i].end = end
	}
}

// rec records a finished span of n calls.
func (t *tracer) rec(name spanName, parent int32, n uint32, start, end int64) {
	t.calls[name] += uint64(n)
	t.totalNs[name] += end - start
	if t.sampled {
		t.spans = append(t.spans, span{name: name, parent: parent, calls: n, req: t.req, start: start, end: end})
	}
}

// spanStat aggregates one span name over every tracer.
type spanStat struct {
	calls   uint64 // exhaustive
	totalNs int64  // exhaustive
	// sampledDur and sampledSelf sum the kept spans' durations and self
	// times (duration minus the time covered by child spans).
	sampledDur, sampledSelf int64
	sampled                 uint64
}

// meanNs is the exhaustive mean duration of one call.
func (s *spanStat) meanNs() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.totalNs) / float64(s.calls)
}

// selfNs estimates one call's self time: the mean duration scaled by the
// self share of the sampled spans.
func (s *spanStat) selfNs() float64 {
	if s.sampledDur == 0 {
		return s.meanNs()
	}
	return s.meanNs() * float64(s.sampledSelf) / float64(s.sampledDur)
}

type traceSummary [numSpanNames]spanStat

func summarize(ts []*tracer) *traceSummary {
	var sum traceSummary
	for _, t := range ts {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			st := &sum[s.name]
			st.sampled += uint64(s.calls)
			st.sampledDur += s.end - s.start
			st.sampledSelf += s.end - s.start - child[i]
		}
		for n := range sum {
			sum[n].calls += t.calls[n]
			sum[n].totalNs += t.totalNs[n]
		}
	}
	return &sum
}

// print writes the per-span and per-layer self-time table.
func (sum *traceSummary) print(w *bufio.Writer) {
	fmt.Fprintf(w, "trace: spans kept for 1 request in %d; counts and durations exhaustive\n", spanSampleEvery)
	fmt.Fprintf(w, "  %-26s %12s %10s %12s %12s\n", "span", "calls", "kept", "mean_ns", "self_ns")
	layerSelf := map[string]float64{}
	for n, s := range sum {
		if s.calls == 0 {
			continue
		}
		name := spanNames[n]
		fmt.Fprintf(w, "  %-26s %12d %10d %12.1f %12.1f\n", name, s.calls, s.sampled, s.meanNs(), s.selfNs())
		layerSelf[name[:strings.IndexByte(name, '.')]] += s.selfNs() * float64(s.calls)
	}
	layers := make([]string, 0, len(layerSelf))
	for l := range layerSelf {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "  layer self time (s, summed over goroutines):")
	for _, l := range layers {
		fmt.Fprintf(w, " %s=%.4f", l, layerSelf[l]/1e9)
	}
	fmt.Fprintln(w)
}

// writeSpans writes every kept span as tab-separated text, once, at exit.
func writeSpans(path, header string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# %s\n# goroutine\tspan\tparent\treq\tname\tcalls\tstart_ns\tend_ns\n", header)
	for _, t := range ts {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n", t.id, i, s.parent, s.req, spanNames[s.name], s.calls, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
