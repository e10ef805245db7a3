package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/server"
	"crdtsmr/internal/transport"
)

var nodeIDs = []transport.NodeID{"n1", "n2", "n3"}

// harness is a 3-replica cluster wired the way `crdtsmrd serve` wires
// one replica per process — cluster.NewNode over transport.NewTCP on
// loopback, fronted by server.New(...).Serve — plus one pooled client
// over n1 and n2. n3 serves as an acceptor only.
type harness struct {
	w       workload
	nodes   []*cluster.Node
	meshes  []*transport.TCP
	servers []*server.Server
	lns     []net.Listener
	addrs   []string
	serving sync.WaitGroup
	client  *client.Client
	tr      *tracer // nil when untraced

	preload []uint64 // per key: counter value, or or-set element count
}

// boot starts the cluster, connects the mesh and the client, and
// preloads every key. Everything it does counts as set-up time.
func boot(w workload, seed uint64, tr *tracer) (h *harness, err error) {
	h = &harness{w: w, tr: tr}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	opts := core.DefaultOptions()
	opts.Lease = true
	for _, id := range nodeIDs {
		cfg := cluster.Config{
			Members:       nodeIDs,
			Initial:       crdt.NewGCounter(),
			InitialForKey: server.TypedKeyInitial(crdt.TypeGCounter),
			Options:       opts,
			StateTransfer: core.TransferFull,
			Shards:        shards,
		}
		var mesh *transport.TCP
		var meshErr error
		node, err := cluster.NewNode(id, cfg, func(nid transport.NodeID, hd transport.Handler) transport.Conn {
			if tr != nil {
				hd = tr.wrapHandler(nid, hd)
			}
			// Peers are added once every replica listens, so the
			// ephemeral ports need no reservation.
			t, err := transport.NewTCP(nid, "127.0.0.1:0", nil, hd)
			if err != nil {
				meshErr = err
				return nopConn(nid)
			}
			mesh = t
			if tr != nil {
				return tr.wrapConn(t)
			}
			return t
		})
		if err == nil {
			err = meshErr
		}
		if err != nil {
			if node != nil {
				_ = node.Close()
			}
			return h, fmt.Errorf("boot %s: %w", id, err)
		}
		h.nodes = append(h.nodes, node)
		h.meshes = append(h.meshes, mesh)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return h, fmt.Errorf("listen %s: %w", id, err)
		}
		if tr != nil {
			ln = tr.wrapListener(ln)
		}
		h.lns = append(h.lns, ln)
		srv := server.New(node, server.Options{})
		h.servers = append(h.servers, srv)
		h.addrs = append(h.addrs, ln.Addr().String())
		h.serving.Add(1)
		go func() {
			defer h.serving.Done()
			_ = srv.Serve(ln)
		}()
	}
	for i, m := range h.meshes {
		for j, id := range nodeIDs {
			if i != j {
				m.AddPeer(id, h.meshes[j].Addr())
			}
		}
	}

	copts := []client.Option{client.WithPool(poolPerAddr)}
	if tr != nil {
		copts = append(copts, client.WithDialer(tr.dialer()))
	}
	h.client, err = client.New(h.addrs[:2], copts...)
	if err != nil {
		return h, err
	}
	if err := h.preloadKeys(seed); err != nil {
		return h, err
	}
	// Round-robin over both addresses, so both connections are dialed
	// before the first measured request.
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	for range h.addrs[:2] {
		if err := h.client.Ping(ctx); err != nil {
			return h, fmt.Errorf("client connect: %w", err)
		}
	}
	return h, nil
}

// preloadKeys gives every key its starting state straight through the
// replicas' UpdateKey, concurrently, alternating the proposer between n1
// and n2: a seeded count on each counter, or every element on each or-set
// in one update.
func (h *harness) preloadKeys(seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	h.preload = make([]uint64, h.w.keys)
	for k := range h.preload {
		if h.w.orset {
			h.preload[k] = uint64(h.w.elems)
		} else {
			h.preload[k] = 1 + rng.Uint64N(8)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return forKeys(h.w.keys, func(k int) error {
		node := h.nodes[k%2]
		if _, err := node.UpdateKey(ctx, h.w.key(k), h.preloadUpdate(node.ID(), k)); err != nil {
			return fmt.Errorf("preload %s: %w", h.w.key(k), err)
		}
		return nil
	})
}

func (h *harness) preloadUpdate(slot transport.NodeID, k int) crdt.Update {
	if !h.w.orset {
		return counterInc(slot, h.preload[k])
	}
	n := h.w.elems
	return func(st crdt.State) (crdt.State, error) {
		set, ok := st.(*crdt.ORSet)
		if !ok {
			return nil, fmt.Errorf("payload is %s, not or-set", st.TypeName())
		}
		for i := range n {
			set = set.Add(elem(i), string(slot), uint64(i+1))
		}
		return set, nil
	}
}

func counterInc(slot transport.NodeID, n uint64) crdt.Update {
	return func(st crdt.State) (crdt.State, error) {
		c, ok := st.(*crdt.GCounter)
		if !ok {
			return nil, fmt.Errorf("payload is %s, not g-counter", st.TypeName())
		}
		return c.Inc(string(slot), n), nil
	}
}

// close stops the client, the servers and the replicas, and waits for
// every goroutine the harness started.
func (h *harness) close() {
	setPhase("close")
	if h.client != nil {
		_ = h.client.Close()
	}
	for _, s := range h.servers {
		_ = s.Close()
	}
	// Server.Close stops only a Serve that has already begun; one whose
	// goroutine had not yet run when Close was called would accept
	// forever. n3's server takes no client connection during set-up, so
	// nothing makes its Serve begin before close. Closing the listeners
	// ends a Serve whenever it begins.
	for _, ln := range h.lns {
		_ = ln.Close() // already closed by its server when Serve had begun
	}
	h.serving.Wait()
	for _, n := range h.nodes {
		_ = n.Close() // a close error leaves nothing for a finished run to act on
	}
}

func (h *harness) persistErrors() uint64 {
	var v uint64
	for _, n := range h.nodes {
		v += n.PersistErrors()
	}
	return v
}

func (h *harness) counters() core.Counters {
	var c core.Counters
	for _, n := range h.nodes {
		c.Add(n.Counters())
	}
	return c
}

func (h *harness) shed() uint64 {
	var v uint64
	for _, s := range h.servers {
		v += s.ShedRequests() + s.ShedConns()
	}
	return v
}

// nopConn stands in when the TCP transport failed to start, so NewNode
// can return and the error surface.
type nopConn transport.NodeID

func (c nopConn) ID() transport.NodeID          { return transport.NodeID(c) }
func (c nopConn) Send(transport.NodeID, []byte) {}
func (c nopConn) Close() error                  { return nil }
