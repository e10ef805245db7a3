package main

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"crdtsmr/internal/crdt"
)

// checkCounterReads checks every successful counter read against real
// time: a read of key k returns at least the preload plus every
// increment acknowledged before the read started, and at most the
// preload plus every increment issued before the read returned.
func checkCounterReads(recs []opRec, preload []uint64) error {
	type inc struct {
		t      int64
		amount uint64
	}
	acked := make([][]inc, len(preload))  // by ack time
	issued := make([][]inc, len(preload)) // by issue time
	for i := range recs {
		r := &recs[i]
		if isRead(r.kind) {
			continue
		}
		issued[r.key] = append(issued[r.key], inc{r.start, uint64(r.amount)})
		if r.ok {
			acked[r.key] = append(acked[r.key], inc{r.end, uint64(r.amount)})
		}
	}
	// prefix turns a list of increments into sorted times and running
	// sums, so "sum of amounts at times < t" is one binary search.
	type prefix struct {
		ts   []int64
		sums []uint64 // sums[i] = total of the first i increments
	}
	build := func(l []inc) prefix {
		slices.SortFunc(l, func(a, b inc) int { return cmp.Compare(a.t, b.t) })
		p := prefix{ts: make([]int64, len(l)), sums: make([]uint64, len(l)+1)}
		for i, x := range l {
			p.ts[i] = x.t
			p.sums[i+1] = p.sums[i] + x.amount
		}
		return p
	}
	before := func(p prefix, t int64) uint64 {
		return p.sums[sort.Search(len(p.ts), func(i int) bool { return p.ts[i] >= t })]
	}
	ackedP := make([]prefix, len(preload))
	issuedP := make([]prefix, len(preload))
	for k := range preload {
		ackedP[k], issuedP[k] = build(acked[k]), build(issued[k])
	}
	for i := range recs {
		r := &recs[i]
		if !isRead(r.kind) || !r.ok {
			continue
		}
		lo := preload[r.key] + before(ackedP[r.key], r.start)
		hi := preload[r.key] + before(issuedP[r.key], r.end)
		if r.value < lo || r.value > hi {
			return fmt.Errorf("read of key %d over [%d, %d] ns returned %d, outside [%d, %d]: not linearizable",
				r.key, r.start, r.end, r.value, lo, hi)
		}
	}
	return nil
}

// checkFinal queries every key on every replica after the load stopped.
// Each counter equals its preload plus the acknowledged increments (up to
// the issued ones, when some increment's fate is unknown); each or-set
// holds exactly its preloaded elements.
func (h *harness) checkFinal(ctx context.Context, recs []opRec) error {
	ackedSum := make([]uint64, h.w.keys)
	issuedSum := make([]uint64, h.w.keys)
	for i := range recs {
		r := &recs[i]
		if isRead(r.kind) {
			continue
		}
		issuedSum[r.key] += uint64(r.amount)
		if r.ok {
			ackedSum[r.key] += uint64(r.amount)
		}
	}
	want := make([]string, h.w.elems)
	for i := range want {
		want[i] = elem(i)
	}
	return forKeys(h.w.keys, func(k int) error {
		key := h.w.key(k)
		for _, n := range h.nodes {
			st, _, err := n.QueryKey(ctx, key)
			if err != nil {
				return fmt.Errorf("final read of %s on %s: %w", key, n.ID(), err)
			}
			if h.w.orset {
				set, ok := st.(*crdt.ORSet)
				if !ok || !slices.Equal(set.Elements(), want) {
					return fmt.Errorf("final %s on %s is %v, want the %d preloaded elements", key, n.ID(), st, len(want))
				}
				continue
			}
			c, ok := st.(*crdt.GCounter)
			if !ok {
				return fmt.Errorf("final %s on %s is %v, not a g-counter", key, n.ID(), st)
			}
			lo, hi := h.preload[k]+ackedSum[k], h.preload[k]+issuedSum[k]
			if v := c.Value(); v < lo || v > hi {
				return fmt.Errorf("final %s on %s is %d, want %d (preload %d + acknowledged increments)", key, n.ID(), v, lo, h.preload[k])
			}
		}
		return nil
	})
}

// forKeys runs f for keys 0..n-1 on callers goroutines and returns the
// first error.
func forKeys(n int, f func(k int) error) error {
	next := make(chan int)
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				if err := f(k); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var err error
feed:
	for k := range n {
		select {
		case next <- k:
		case err = <-errs:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err == nil {
		select {
		case err = <-errs:
		default:
		}
	}
	return err
}
