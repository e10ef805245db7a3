package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"crdtsmr/internal/crdt"
)

// Operation kinds in the history.
const (
	opRead uint8 = iota
	opUpdate
	opProbeRead   // Node.QueryKey on n1/n2, bypassing client and server
	opProbeUpdate // Node.UpdateKey on n1/n2
)

func isRead(kind uint8) bool { return kind == opRead || kind == opProbeRead }

// opRec is one operation of the history. It holds no pointers, so a
// history of millions costs the garbage collector nothing to scan.
type opRec struct {
	start, end int64 // ns since the run's epoch
	value      uint64
	key        int32
	amount     uint32
	rtts       uint16
	kind       uint8
	ok         bool
}

// chunks is an append-only log kept in fixed-size chunks, so appends
// never copy what is already recorded.
type chunks[T any] struct{ cs [][]T }

const chunkLen = 4096

func (c *chunks[T]) add(v T) {
	if n := len(c.cs); n == 0 || len(c.cs[n-1]) == chunkLen {
		c.cs = append(c.cs, make([]T, 0, chunkLen))
	}
	last := &c.cs[len(c.cs)-1]
	*last = append(*last, v)
}

func (c *chunks[T]) each(f func(*T)) {
	for _, cs := range c.cs {
		for i := range cs {
			f(&cs[i])
		}
	}
}

// generator drives the closed loop: callers goroutines, each sending its
// next operation only after the previous one returned. Every caller draws
// its keys and operations from its own seeded stream, so the same seed
// gives the same inputs whatever the timing.
type generator struct {
	h       *harness
	seed    uint64
	probes  bool // traced runs: 1 in probeEvery ops goes straight to a node
	stop    atomic.Bool
	wg      sync.WaitGroup
	hists   []chunks[opRec] // one per caller
	errMu   sync.Mutex
	err     error // first output-check failure seen inside the loop
	nextSeq atomic.Uint64
}

func (g *generator) start() {
	g.hists = make([]chunks[opRec], callers)
	g.nextSeq.Store(1 << 62) // or-set add tags of probes; far from the servers' clock-seeded tags
	for i := range callers {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.loop(i)
		}()
	}
}

// halt stops the callers and waits until each has finished its operation
// in flight.
func (g *generator) halt() {
	g.stop.Store(true)
	g.wg.Wait()
}

func (g *generator) fail(err error) {
	g.errMu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.errMu.Unlock()
}

func (g *generator) loop(caller int) {
	w := g.h.w
	rng := rand.New(rand.NewPCG(g.seed, uint64(caller)+1))
	hist := &g.hists[caller]
	for n := 0; !g.stop.Load(); n++ {
		k := rng.IntN(w.keys)
		read := rng.Float64() < w.readFrac
		amount := 1 + rng.Uint32N(3)
		e := 0
		if w.orset {
			e = rng.IntN(w.elems)
		}
		// Drawn in every run, so traced and untraced runs of one seed
		// send the same operations.
		probe := rng.IntN(probeEvery) == 0 && g.probes
		rec := opRec{key: int32(k), amount: amount, kind: opUpdate}
		if read {
			rec.kind = opRead
		}
		if probe {
			rec.kind += opProbeRead
		}
		// Every operation has a deadline, the probes straight to a node
		// too, so halting the callers takes bounded time.
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		rec.start = now()
		err := g.do(ctx, caller, n, &rec, e)
		rec.end = now()
		cancel()
		rec.ok = err == nil
		if g.h.tr != nil {
			g.h.tr.op(&rec)
		}
		hist.add(rec)
		var bad *checkError
		if errors.As(err, &bad) {
			g.fail(err)
			return
		}
	}
}

// checkError marks a wrong answer, as opposed to a failed operation.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func (g *generator) do(ctx context.Context, caller, n int, rec *opRec, e int) error {
	w := g.h.w
	key := w.key(int(rec.key))
	var st crdt.State
	switch rec.kind {
	case opRead:
		s, info, err := g.h.client.Query(ctx, key)
		if err != nil {
			return err
		}
		st, rec.rtts = s, uint16(info.RoundTrips)
	case opUpdate:
		if w.orset {
			return g.h.client.Set(key).Add(ctx, elem(e))
		}
		return g.h.client.Counter(key).Inc(ctx, uint64(rec.amount))
	case opProbeRead:
		node := g.h.nodes[(caller+n)%2]
		s, stats, err := node.QueryKey(ctx, key)
		if err != nil {
			return err
		}
		st, rec.rtts = s, uint16(stats.RoundTrips)
	case opProbeUpdate:
		node := g.h.nodes[(caller+n)%2]
		fu := counterInc(node.ID(), uint64(rec.amount))
		if w.orset {
			fu = orsetAdd(string(node.ID()), elem(e), g.nextSeq.Add(1))
		}
		stats, err := node.UpdateKey(ctx, key, fu)
		rec.rtts = uint16(stats.RoundTrips)
		return err
	}
	if w.orset {
		set, ok := st.(*crdt.ORSet)
		if !ok || !set.Contains(elem(e)) {
			return &checkError{fmt.Sprintf("read of %s lacks preloaded element %s: %v", key, elem(e), st)}
		}
		return nil
	}
	c, ok := st.(*crdt.GCounter)
	if !ok {
		return &checkError{fmt.Sprintf("read of %s returned %v, not a g-counter", key, st)}
	}
	rec.value = c.Value()
	return nil
}

func orsetAdd(actor, e string, seq uint64) crdt.Update {
	return func(st crdt.State) (crdt.State, error) {
		set, ok := st.(*crdt.ORSet)
		if !ok {
			return nil, fmt.Errorf("payload is %s, not or-set", st.TypeName())
		}
		return set.Add(e, actor, seq), nil
	}
}
