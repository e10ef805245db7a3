package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// --- wire-transcript golden: how a payload travels never shows in the outcome ---

// wireGolden is the SHA-256 of each combo's transcript over goldenSeeds
// seeded scripts: every delivered frame, every completion (the encoded
// learned state with its QueryStats, or the error) and every replica's
// final Counters, StateVersion, epoch and payload. A change that moves
// any wire byte, counter or version fails here. A change meant to alter
// the wire re-records the digests from the failure message, and says so
// in its change notes.
var wireGolden = map[string]string{
	"full/lease-off":   "6eb94517659992fd216e555676cba38d5fce9a8b1cf827b3397ca40b113adebf",
	"full/lease-on":    "3fc6ef59e716f8d3c375afdd00b491f3d78a17495fc8874b253847355d4f9947",
	"digest/lease-off": "fb88c3c519c0f3365edc6994b47bce030469f28d6436ecd2daaf663c18b765e8",
	"digest/lease-on":  "619796dad69893a4c18e0a5cb654d1554fb966e28ff93228210b454f55d10798",
	"delta/lease-off":  "521408c3c32315a397aedee97cfb38240577b01630e04321b831b9596bd6f423",
	"delta/lease-on":   "610b6363e0f2dcf8c093c90603e1e2f2667b11c133db8688b09a38f5087e6fcf",
}

const goldenSeeds = 100

// TestWireTranscriptGolden drives three replicas and a blank joiner
// through seeded scripts for every transfer mode with the lease on and
// off, and compares each combo's transcript digest with wireGolden. The
// scripts mix random delivery order, loss, duplication, RetransmitAll,
// ForgetPeer, DropLease, Abort, up to two SubmitReconfigures, updates
// (no-op ones too) and queries, over g-counter (even seeds) and
// 128-element or-set (odd seeds) payloads. The sweep's counter totals
// must show every state-transfer and lease branch taken.
func TestWireTranscriptGolden(t *testing.T) {
	orset, err := crdt.Marshal(orSetOf(128))
	if err != nil {
		t.Fatal(err)
	}
	var total Counters
	for _, mode := range []StateTransfer{TransferFull, TransferDigest, TransferDelta} {
		for _, lease := range []bool{false, true} {
			name := fmt.Sprintf("%v/lease-off", mode)
			if lease {
				name = fmt.Sprintf("%v/lease-on", mode)
			}
			opts := DefaultOptions()
			opts.Transfer, opts.Lease = mode, lease
			h := sha256.New()
			for seed := int64(1); seed <= goldenSeeds; seed++ {
				total.Add(runGoldenScript(t, h, opts, seed, orset))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != wireGolden[name] {
				t.Errorf("%s: transcript digest %s, want %s", name, got, wireGolden[name])
			}
		}
	}
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"DigestReplies", total.DigestReplies},
		{"DigestMerges", total.DigestMerges},
		{"DeltaMerges", total.DeltaMerges},
		{"MergeFallbacks", total.MergeFallbacks},
		{"LeaseHits", total.LeaseHits},
		{"LeaseFallbacks", total.LeaseFallbacks},
		{"Retries", total.Retries},
		{"ConfigAdoptions", total.ConfigAdoptions},
	} {
		if c.n == 0 {
			t.Errorf("sweep total %s = 0: a seam branch went unexercised", c.name)
		}
	}
}

type goldenEnv struct {
	from, to transport.NodeID
	payload  []byte
}

type goldenReq struct {
	rep *Replica
	id  uint64
}

// goldenScript is one seeded run: four goroutine-free replicas (n4 a
// blank joiner), a message pool, and the transcript hash.
type goldenScript struct {
	t     *testing.T
	rng   *rand.Rand
	h     hash.Hash
	reps  []*Replica
	byID  map[transport.NodeID]*Replica
	pool  []goldenEnv
	reqs  []goldenReq
	orset bool
	ops   uint64 // completion labels, and or-set add tags
}

// runGoldenScript runs one script; orset is the encoding of the initial
// or-set payload, decoded afresh for each replica.
func runGoldenScript(t *testing.T, h hash.Hash, opts Options, seed int64, orset []byte) Counters {
	t.Helper()
	sc := &goldenScript{t: t, rng: rand.New(rand.NewSource(seed)), h: h, orset: seed%2 == 1, byID: map[transport.NodeID]*Replica{}}
	s0 := func() crdt.State {
		if !sc.orset {
			return crdt.NewGCounter()
		}
		s, err := crdt.Unmarshal(orset)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ids := members("n1", "n2", "n3")
	for _, id := range append(ids, "n4") {
		cfg := Config{Members: ids}
		if id == "n4" {
			cfg = Config{}
		}
		rep, err := NewReplicaConfig(id, cfg, s0(), opts)
		if err != nil {
			t.Fatal(err)
		}
		sc.reps = append(sc.reps, rep)
		sc.byID[id] = rep
	}
	fmt.Fprintf(h, "seed %d\n", seed)

	reconfigs := 0
	for step := 0; step < 80; step++ {
		rep := sc.reps[sc.rng.Intn(len(sc.reps))]
		switch x := sc.rng.Intn(100); {
		case x < 14:
			sc.update(rep, x < 4)
		case x < 26:
			sc.query(rep)
		case x < 31:
			if i, ok := sc.pick(); ok {
				sc.pool = append(sc.pool[:i], sc.pool[i+1:]...) // loss
			}
		case x < 35:
			if i, ok := sc.pick(); ok {
				sc.deliver(sc.pool[i]) // duplication: the original stays pooled
			}
		case x < 42:
			rep.RetransmitAll()
		case x < 45:
			rep.ForgetPeer(sc.reps[sc.rng.Intn(len(sc.reps))].ID())
		case x < 48:
			rep.DropLease()
		case x < 52:
			if len(sc.reqs) > 0 {
				q := sc.reqs[sc.rng.Intn(len(sc.reqs))]
				q.rep.Abort(q.id)
			}
		case x < 55 && reconfigs < 2 && step > 10:
			reconfigs++
			sc.reconfigure(rep)
		default:
			if i, ok := sc.pick(); ok {
				e := sc.pool[i]
				sc.pool = append(sc.pool[:i], sc.pool[i+1:]...)
				sc.deliver(e)
			}
		}
		sc.pump()
	}

	// Drain without loss, retransmitting whenever the network goes quiet
	// with requests still in flight.
	for budget := 3000; budget > 0; budget-- {
		if len(sc.pool) == 0 {
			inflight := false
			for _, rep := range sc.reps {
				if rep.InFlight() > 0 {
					inflight = true
					rep.RetransmitAll()
				}
			}
			sc.pump()
			if !inflight || len(sc.pool) == 0 {
				break
			}
		}
		i := sc.rng.Intn(len(sc.pool))
		e := sc.pool[i]
		sc.pool = append(sc.pool[:i], sc.pool[i+1:]...)
		sc.deliver(e)
		sc.pump()
	}

	var sum Counters
	for _, rep := range sc.reps {
		raw, err := crdt.Marshal(rep.LocalState())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "final %s epoch %d version %d inflight %d counters %+v state %x\n",
			rep.ID(), rep.Epoch(), rep.StateVersion(), rep.InFlight(), rep.Counters(), sha256.Sum256(raw))
		sum.Add(rep.Counters())
	}
	return sum
}

// pick returns a random pool index, if the pool is non-empty.
func (sc *goldenScript) pick() (int, bool) {
	if len(sc.pool) == 0 {
		return 0, false
	}
	return sc.rng.Intn(len(sc.pool)), true
}

func (sc *goldenScript) pump() {
	for _, rep := range sc.reps {
		for _, e := range rep.TakeOutbox() {
			sc.pool = append(sc.pool, goldenEnv{from: rep.ID(), to: e.To, payload: e.Payload})
		}
	}
}

func (sc *goldenScript) deliver(e goldenEnv) {
	var n [binary.MaxVarintLen64]byte
	fmt.Fprintf(sc.h, "deliver %s→%s ", e.from, e.to)
	sc.h.Write(n[:binary.PutUvarint(n[:], uint64(len(e.payload)))])
	sc.h.Write(e.payload)
	if rep, ok := sc.byID[e.to]; ok {
		rep.Deliver(e.from, e.payload)
	}
}

// complete hashes one completion. The learned state is encoded with
// crdt.Marshal, not the replica's memo, so hashing cannot perturb it.
func (sc *goldenScript) complete(kind string, rep *Replica, s crdt.State, st QueryStats, err error) {
	sc.ops++
	fmt.Fprintf(sc.h, "%s %s op %d stats %+v err %v", kind, rep.ID(), sc.ops, st, err)
	if s != nil {
		raw, merr := crdt.Marshal(s)
		if merr != nil {
			sc.t.Fatal(merr)
		}
		sc.h.Write(raw)
	}
	sc.h.Write([]byte{'\n'})
}

func (sc *goldenScript) update(rep *Replica, noop bool) {
	sc.ops++
	tag, actor := sc.ops, string(rep.ID())
	fu := func(s crdt.State) (crdt.State, error) {
		switch {
		case noop:
			return s, nil
		case sc.orset:
			return s.(*crdt.ORSet).Add(fmt.Sprintf("x%d", tag%16), actor, 1000+tag), nil
		default:
			return s.(*crdt.GCounter).Inc(actor, 1), nil
		}
	}
	id, err := rep.SubmitUpdate(fu, func(st UpdateStats, err error) {
		sc.complete("U", rep, nil, QueryStats{RoundTrips: st.RoundTrips}, err)
	})
	fmt.Fprintf(sc.h, "update %s noop %v → %d %v\n", rep.ID(), noop, id, err)
	if err == nil {
		sc.reqs = append(sc.reqs, goldenReq{rep, id})
	}
}

// reconfigure proposes one of a few member sets: growing to the joiner,
// the same members at a new epoch, swapping the joiner in, or shrinking
// to a single member (which completes updates waiting on a quorum).
func (sc *goldenScript) reconfigure(rep *Replica) {
	targets := [][]transport.NodeID{
		members("n1", "n2", "n3", "n4"), members("n1", "n2", "n3"), members("n1", "n2", "n4"), {rep.ID()},
	}
	target := targets[sc.rng.Intn(len(targets))]
	id, err := rep.SubmitReconfigure(target, func(err error) { sc.complete("C", rep, nil, QueryStats{}, err) })
	fmt.Fprintf(sc.h, "reconfigure %s %v → %d %v\n", rep.ID(), target, id, err)
	if err == nil {
		sc.reqs = append(sc.reqs, goldenReq{rep, id})
	}
}

func (sc *goldenScript) query(rep *Replica) {
	id := rep.SubmitQuery(func(s crdt.State, st QueryStats, err error) { sc.complete("Q", rep, s, st, err) })
	fmt.Fprintf(sc.h, "query %s → %d\n", rep.ID(), id)
	sc.reqs = append(sc.reqs, goldenReq{rep, id})
}
