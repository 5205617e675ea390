package malloc

import (
	"fmt"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// lfBackend is the page backend of the lock-free design: one non-blocking
// buddy allocator per NUMA node (heap.Buddy) plus span bookkeeping. Magazine
// refills carve batches of chunks out of buddy-backed spans instead of
// locking an arena, and a span whose last chunk comes home returns its whole
// block to the buddy (the superblock rule), where CAS coalescing rebuilds
// large blocks. No path here acquires a lock: contention lives in the buddy's
// per-order bitmap CAS points and is reported through its stats.
//
// Chunks carved from a span carry a nil arena in their tcEntry; every
// consumer that would touch the arena (flush, node routing, Check) detours
// through this backend instead.
type lfBackend struct {
	nodes []*lfNode

	// pageSpan maps every page of every live block to its span, so free-side
	// routing is one map probe (the stand-in for a real allocator's radix
	// walk, priced at TSDRead scale by the caller).
	pageSpan map[uint64]*lfSpan

	// Line-aware span coloring (a line-aligned heap): each carving thread
	// rotates fresh spans' first-chunk origin through lfSpanColors line-size
	// strides; colorSeq is the per-thread position on the wheel, keyed by
	// thread ID.
	lineAware bool
	colorSeq  denseTable[int]

	stats *Stats // the owning thread cache's counters
}

// lfNode is one node's slice of the backend: its buddy, its size classes
// (keyed by classSlot) and every live span.
type lfNode struct {
	node    int
	buddy   *heap.Buddy
	classes denseTable[*lfClass]
	spans   []*lfSpan
}

// lfClass is one size class of a node: its partial-span list, the spans
// with chunks still available, oldest first.
type lfClass struct{ partial []*lfSpan }

// lfSpan is one buddy block carved into chunks of a single size class.
// Chunks are carved lazily front to back; returned chunks park on freeList.
// live counts chunks currently out of the span (in user hands, magazines or
// depots) — the invariant live + len(freeList) == carved always holds, and
// live hitting zero frees the whole block back to the buddy.
//
// blockBase is the buddy block's start; base is the first-chunk origin. They
// differ only under line-aware coloring, which rotates base forward by a
// per-thread number of line strides so the hot head chunks of different
// threads' spans don't land in the same cache index sets.
type lfSpan struct {
	blockBase uint64
	base      uint64
	pages     int
	csz       uint32
	node      int
	chunks    int
	carved    int
	freeList  []uint64
	live      int
}

// The buddy backend's fixed tuning: the zone size in pages, and the
// per-chunk cycles of a span carve and a chunk return — the lock-free
// counterparts of the arena's boundary-tag malloc/free work, cheaper
// because a carve is a bump pointer and a return is a list push.
const (
	buddyZonePages  = heap.DefaultBuddyZonePages
	buddyCarveWork  = 40
	buddyReturnWork = 30
)

// lfSpanColors is the color wheel size: head offsets cycle through this many
// line-size strides. Eight lines covers a 256B-aligned index spread at the
// model's 32B lines while bounding the per-span waste to 7 lines.
const lfSpanColors = 8

func (sp *lfSpan) avail() int { return len(sp.freeList) + (sp.chunks - sp.carved) }

func newLFBackend(name string, as *vm.AddressSpace, shards []*poolShard, lineAware bool, stats *Stats) *lfBackend {
	be := &lfBackend{
		pageSpan:  make(map[uint64]*lfSpan),
		lineAware: lineAware,
		stats:     stats,
	}
	for _, sh := range shards {
		bname := name + ".buddy"
		if len(shards) > 1 {
			bname = fmt.Sprintf("%s.buddy.n%d", name, sh.node)
		}
		be.nodes = append(be.nodes, &lfNode{
			node:  sh.node,
			buddy: heap.NewBuddy(as, bname, buddyZonePages, sh.node),
		})
	}
	return be
}

// nodeOf returns the backend slice serving the given node (the single flat
// slice when the pool is not sharded).
func (be *lfBackend) nodeOf(node int) *lfNode {
	if len(be.nodes) == 1 || node < 0 {
		return be.nodes[0]
	}
	if node >= len(be.nodes) {
		node = 0
	}
	return be.nodes[node]
}

// refill carves batch chunks of class csz from the caller's node, allocating
// fresh buddy blocks sized for batch chunks as partial spans run out. The
// entries carry nil arenas; their owning span is found via pageSpan.
func (be *lfBackend) refill(t *sim.Thread, node int, csz uint32, batch int) ([]tcEntry, error) {
	nd := be.nodeOf(node)
	out := make([]tcEntry, 0, batch)
	for len(out) < batch {
		sp := be.partialSpan(nd, csz)
		if sp == nil {
			var err error
			sp, err = be.newSpan(t, nd, csz, batch)
			if err != nil {
				if len(out) > 0 {
					return out, nil // partial refill: hand over what we have
				}
				return nil, err
			}
		}
		for len(out) < batch && sp.avail() > 0 {
			var mem uint64
			if n := len(sp.freeList); n > 0 {
				mem = sp.freeList[n-1]
				sp.freeList = sp.freeList[:n-1]
			} else {
				mem = sp.base + uint64(sp.carved)*uint64(csz)
				sp.carved++
			}
			sp.live++
			t.Charge(buddyCarveWork)
			out = append(out, tcEntry{mem: mem})
		}
		if sp.avail() == 0 {
			be.dropPartial(nd, csz, sp)
		}
	}
	return out, nil
}

// classOf returns (creating if needed) the node's record of class csz.
func (nd *lfNode) classOf(csz uint32) *lfClass {
	cl := nd.classes.get(classSlot(csz))
	if cl == nil {
		cl = &lfClass{}
		nd.classes.set(classSlot(csz), cl)
	}
	return cl
}

// partialSpan returns the oldest span of csz with chunks available, pruning
// exhausted list heads as it goes.
func (be *lfBackend) partialSpan(nd *lfNode, csz uint32) *lfSpan {
	cl := nd.classOf(csz)
	for len(cl.partial) > 0 {
		if sp := cl.partial[0]; sp.avail() > 0 {
			return sp
		}
		cl.partial = cl.partial[1:]
	}
	return nil
}

// newSpan allocates a buddy block sized for batch chunks of csz and registers
// it as a partial span.
func (be *lfBackend) newSpan(t *sim.Thread, nd *lfNode, csz uint32, batch int) (*lfSpan, error) {
	want := uint64(batch) * uint64(csz)
	pages := int((want + vm.PageSize - 1) / vm.PageSize)
	pages = nd.buddy.BlockPages(pages)
	addr, err := nd.buddy.Alloc(t, pages)
	if err != nil {
		return nil, fmt.Errorf("malloc: buddy refill (%d pages for class %d): %w", pages, csz, err)
	}
	sp := &lfSpan{
		blockBase: addr,
		base:      addr,
		pages:     pages,
		csz:       csz,
		node:      nd.node,
		chunks:    int(uint64(pages) * vm.PageSize / uint64(csz)),
	}
	if be.lineAware {
		// Color the span: skip a per-thread rotating number of lines before
		// the first chunk. Buddy blocks are page-aligned, so without this
		// every thread's hot head chunk maps to the same index sets.
		seq := be.colorSeq.get(t.ID())
		be.colorSeq.set(t.ID(), seq+1)
		off := uint64((t.ID()+seq)%lfSpanColors) * cache.LineSize
		if off > 0 && uint64(sp.pages)*vm.PageSize-off >= uint64(csz) {
			sp.base = addr + off
			sp.chunks = int((uint64(sp.pages)*vm.PageSize - off) / uint64(csz))
			be.stats.LineColorBytes += off
			be.stats.LineColorSpans++
		}
	}
	for p := 0; p < pages; p++ {
		be.pageSpan[addr/vm.PageSize+uint64(p)] = sp
	}
	cl := nd.classOf(csz)
	cl.partial = append(cl.partial, sp)
	nd.spans = append(nd.spans, sp)
	return sp, nil
}

// dropPartial removes an exhausted span from its class's partial list; the
// span stays registered (its chunks are out) until the last one returns.
func (be *lfBackend) dropPartial(nd *lfNode, csz uint32, sp *lfSpan) {
	cl := nd.classOf(csz)
	for i, s := range cl.partial {
		if s == sp {
			cl.partial = append(cl.partial[:i], cl.partial[i+1:]...)
			return
		}
	}
}

// spanAt returns the span owning mem, nil when mem is not buddy-backed.
// Uncharged: the free path prices the probe at TSDRead scale, the buddy
// analogue of base.routeFree's read.
func (be *lfBackend) spanAt(mem uint64) *lfSpan {
	return be.pageSpan[mem/vm.PageSize]
}

// returnChunk hands one chunk back to its span; the last chunk home frees
// the whole block back to the buddy, where CAS coalescing rebuilds it.
func (be *lfBackend) returnChunk(t *sim.Thread, mem uint64) error {
	sp := be.spanAt(mem)
	if sp == nil {
		return fmt.Errorf("%w: 0x%x not in any buddy span", heap.ErrBadFree, mem)
	}
	if sp.live <= 0 {
		return fmt.Errorf("%w: 0x%x returned to an empty span", heap.ErrBadFree, mem)
	}
	t.Charge(buddyReturnWork)
	sp.freeList = append(sp.freeList, mem)
	sp.live--
	if sp.live > 0 {
		return nil
	}
	// Last chunk home: the block goes back whole. Unregister first so a
	// racing (simulated) lookup cannot resolve into a freed block.
	nd := be.nodeOf(sp.node)
	be.dropPartial(nd, sp.csz, sp)
	for i, s := range nd.spans {
		if s == sp {
			nd.spans = append(nd.spans[:i], nd.spans[i+1:]...)
			break
		}
	}
	for p := 0; p < sp.pages; p++ {
		delete(be.pageSpan, sp.blockBase/vm.PageSize+uint64(p))
	}
	if sp.base != sp.blockBase {
		be.stats.LineColorBytes -= sp.base - sp.blockBase
		be.stats.LineColorSpans--
	}
	return nd.buddy.Free(t, sp.blockBase, sp.pages)
}

// takeReturns filters buddy-backed victims out of a flush batch, returning
// each to its span, and hands back the arena-owned remainder (order
// preserved) for the ordinary locked flush.
func (be *lfBackend) takeReturns(t *sim.Thread, victims []tcEntry) ([]tcEntry, error) {
	var firstErr error
	rest := victims[:0]
	for _, e := range victims {
		if e.arena != nil {
			rest = append(rest, e)
			continue
		}
		if err := be.returnChunk(t, e.mem); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return rest, firstErr
}

// ownsChunk verifies mem is a chunk this backend has carved: inside a live
// span, on a class boundary, within the carved prefix.
func (be *lfBackend) ownsChunk(mem uint64) error {
	sp := be.spanAt(mem)
	if sp == nil {
		return fmt.Errorf("0x%x not in any buddy span", mem)
	}
	off := mem - sp.base
	if off%uint64(sp.csz) != 0 || int(off/uint64(sp.csz)) >= sp.carved {
		return fmt.Errorf("0x%x not a carved class-%d chunk of span 0x%x", mem, sp.csz, sp.base)
	}
	return nil
}

// check verifies the span invariants and every buddy's bitmap state.
func (be *lfBackend) check() error {
	for _, nd := range be.nodes {
		for _, sp := range nd.spans {
			if sp.carved > sp.chunks {
				return fmt.Errorf("malloc: span 0x%x carved %d of %d chunks", sp.base, sp.carved, sp.chunks)
			}
			if sp.live+len(sp.freeList) != sp.carved {
				return fmt.Errorf("malloc: span 0x%x live %d + free %d != carved %d",
					sp.base, sp.live, len(sp.freeList), sp.carved)
			}
			for _, mem := range sp.freeList {
				if mem < sp.base || mem >= sp.blockBase+uint64(sp.pages)*vm.PageSize {
					return fmt.Errorf("malloc: span 0x%x free list holds foreign 0x%x", sp.base, mem)
				}
			}
		}
		if err := nd.buddy.Check(); err != nil {
			return fmt.Errorf("malloc: node %d buddy: %w", nd.node, err)
		}
	}
	return nil
}
