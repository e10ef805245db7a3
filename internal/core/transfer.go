package core

import (
	"fmt"
	"maps"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// StateTransfer selects how MERGE/ACK/NACK messages move payload state on
// the replica wire (docs/PROTOCOL.md §3). All three modes implement the
// same protocol and interoperate — receivers understand every frame kind
// regardless of their own mode, and the mode only governs what a node
// initiates (replies answer in whatever form the inbound frame asked
// for: even a full-mode acceptor sends a digest-only ACK to a PREPARE
// that announced a matching digest) — but a uniform cluster-wide
// setting is what makes the savings land. Only the transfer seam below
// reads the mode. The round lease (Options.Lease) is orthogonal: the
// lease's digest is the seam's announced digest, zero under full
// transfer, so a full-mode leased VOTE always ships its proposal.
type StateTransfer uint8

const (
	// TransferFull always ships complete payloads — the paper's wire
	// format, and the default.
	TransferFull StateTransfer = iota
	// TransferDigest announces the proposer's state digest in PREPARE so
	// converged acceptors answer digest-only ACKs/NACKs, and suppresses
	// MERGE payloads a peer has already acknowledged.
	TransferDigest
	// TransferDelta additionally ships join-decomposition deltas in MERGE
	// for payload types implementing crdt.DeltaState, against the last
	// state each peer acknowledged.
	TransferDelta
)

var transferNames = []string{TransferFull: "full", TransferDigest: "digest", TransferDelta: "delta"}

func (t StateTransfer) String() string {
	if int(t) < len(transferNames) {
		return transferNames[t]
	}
	return fmt.Sprintf("StateTransfer(%d)", uint8(t))
}

// ParseStateTransfer parses the -state-transfer flag values.
func ParseStateTransfer(s string) (StateTransfer, error) {
	for t, name := range transferNames {
		if s == name {
			return StateTransfer(t), nil
		}
	}
	return TransferFull, fmt.Errorf("core: unknown state-transfer mode %q (want full, digest, or delta)", s)
}

// peerView is the proposer-side record of the last payload state a peer
// acknowledged merging from this replica. Any acknowledged state is a
// sound delta baseline forever: the peer's payload only grows, so it
// dominates everything it ever merged. The full state is retained only in
// delta mode (it is the delta subtrahend); digest mode keeps the digest
// alone.
type peerView struct {
	state  crdt.State // nil under TransferDigest
	digest crdt.Digest
}

// digestRingSize bounds the per-peer digest cache: how many of a peer's
// recent MERGE states an acceptor remembers having merged. A small ring
// tolerates a few reordered or duplicated deltas in flight; anything
// older falls back to a MERGE-NACK and a full-state resend.
const digestRingSize = 8

// digestRing is a fixed-size record of recently merged state digests. A
// nil ring tracks nothing: it contains no digest and ignores adds.
type digestRing struct {
	buf [digestRingSize]crdt.Digest
	n   int // filled slots
	pos int // next overwrite position
}

func (r *digestRing) add(d crdt.Digest) {
	if r == nil || r.contains(d) {
		return
	}
	r.buf[r.pos] = d
	r.pos = (r.pos + 1) % digestRingSize
	if r.n < digestRingSize {
		r.n++
	}
}

func (r *digestRing) contains(d crdt.Digest) bool {
	if r == nil {
		return false
	}
	for i := 0; i < r.n; i++ {
		if r.buf[i] == d {
			return true
		}
	}
	return false
}

// transfer is the replica's one state-transfer seam: every decision the
// StateTransfer mode governs is made here, so the protocol handlers never
// consult the mode. It picks the digest announced for a sent state, the
// form of a MERGE to one peer, whether a sender's digest ring is tracked,
// and how a peer's acknowledged state is recorded. A zero digest means
// "none". Under full transfer the caches are nil maps: the seam announces
// no digest, computes no SHA-256, tracks and records nothing, and every
// frame it initiates carries the full payload. The caches hold configured
// peers only (setPeers), and ForgetPeer drops a peer the runtime declares
// down.
type transfer struct {
	delta bool                             // ship deltas: views keep acknowledged states
	enc   *encMemo                         // the replica's encoding memo
	peers []transport.NodeID               // the configured remote peers
	views map[transport.NodeID]*peerView   // proposer side: per-peer last-acked state
	seen  map[transport.NodeID]*digestRing // acceptor side: per-peer merged digests
}

func newTransfer(opts Options, enc *encMemo) transfer {
	t := transfer{delta: opts.Transfer == TransferDelta, enc: enc}
	if opts.Transfer != TransferFull {
		t.views = make(map[transport.NodeID]*peerView)
		t.seen = make(map[transport.NodeID]*digestRing)
	}
	return t
}

// digest returns the digest to announce for a state this replica sends:
// zero under full transfer, or when s cannot be encoded.
func (t *transfer) digest(s crdt.State) crdt.Digest {
	if t.views == nil {
		return crdt.Digest{}
	}
	d, _ := t.enc.digestOf(s)
	return d
}

// shapeMerge turns m, the full MERGE of a state announced with digest d,
// into the cheapest form peer to can verify and returns that form: the
// digest alone when to acknowledged exactly this state, a delta against
// the last state it acknowledged (delta transfer, delta-capable
// payloads), or m unchanged (wire.StateFull). Full is always safe; the
// receiver verifies the others against its digest ring and falls back
// via MERGE-NACK.
func (t *transfer) shapeMerge(m *message, to transport.NodeID, d crdt.Digest) wire.StateKind {
	view, ok := t.views[to]
	switch {
	case d.IsZero() || !ok:
	case view.digest == d:
		m.State, m.Kind, m.Digest = nil, wire.StateDigest, d
		return m.Kind
	case view.state != nil:
		if ds, ok := m.State.(crdt.DeltaState); ok {
			if delta, err := ds.Delta(view.state); err == nil {
				m.State, m.Kind, m.Digest, m.Baseline = delta, wire.StateDelta, d, view.digest
				return m.Kind
			}
		}
	}
	return wire.StateFull
}

// holds reports whether peer to acknowledged exactly the state announced
// with digest d.
func (t *transfer) holds(to transport.NodeID, d crdt.Digest) bool {
	view, ok := t.views[to]
	return ok && view.digest == d
}

// acked records that peer to durably merged s, announced with digest d,
// as to's view: the baseline of later digest and delta MERGEs. A zero
// digest records nothing.
func (t *transfer) acked(to transport.NodeID, s crdt.State, d crdt.Digest) {
	if d.IsZero() || !contains(t.peers, to) {
		return
	}
	view := &peerView{digest: d}
	if t.delta {
		view.state = s
	}
	t.views[to] = view
}

// ring returns the digest ring of the states merged here from peer from,
// or nil (track nothing) under full transfer or for a sender that is not
// a configured peer. A node without a ring still answers digest and delta
// frames correctly — safety never depends on the cache — it just forces
// more full-state fallbacks.
func (t *transfer) ring(from transport.NodeID) *digestRing {
	if t.seen == nil || !contains(t.peers, from) {
		return nil
	}
	r, ok := t.seen[from]
	if !ok {
		r = &digestRing{}
		t.seen[from] = r
	}
	return r
}

// setPeers installs the configured remote peers and drops what the caches
// hold about nodes no longer among them.
func (t *transfer) setPeers(peers []transport.NodeID) {
	t.peers = peers
	maps.DeleteFunc(t.views, func(id transport.NodeID, _ *peerView) bool { return !contains(peers, id) })
	maps.DeleteFunc(t.seen, func(id transport.NodeID, _ *digestRing) bool { return !contains(peers, id) })
}

func (t *transfer) forget(peer transport.NodeID) {
	delete(t.views, peer)
	delete(t.seen, peer)
}
