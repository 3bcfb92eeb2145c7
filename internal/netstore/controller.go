package netstore

import (
	"bufio"
	"net"
	"sync"
	"time"

	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/wire"
)

// ControllerOptions configure the networked credits controller.
type ControllerOptions struct {
	// Clients and Servers are the tier dimensions.
	Clients, Servers int
	// CapacityPerNano is one server's parallel service capacity
	// (= worker count); see core.NewCreditController.
	CapacityPerNano float64
	// Interval is the grant period (default 100 ms).
	Interval time.Duration
}

func (o ControllerOptions) withDefaults() ControllerOptions {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.CapacityPerNano <= 0 {
		o.CapacityPerNano = 4
	}
	return o
}

// ControllerServer is the logically-centralized credits controller as a
// network service: clients connect, stream demand reports, and receive
// periodic credit grants. The allocation logic is core.CreditController —
// the exact code the simulator validates.
type ControllerServer struct {
	opts ControllerOptions

	mu      sync.Mutex
	ctrl    *core.CreditController
	demand  [][]float64
	clients map[int]*connState
	ln      net.Listener
	closed  bool
	wg      sync.WaitGroup
	stopCh  chan struct{}
}

// NewControllerServer builds a controller service.
func NewControllerServer(opts ControllerOptions) *ControllerServer {
	opts = opts.withDefaults()
	cs := &ControllerServer{
		opts:    opts,
		ctrl:    core.NewCreditController(opts.Clients, opts.Servers, opts.CapacityPerNano),
		clients: make(map[int]*connState),
		stopCh:  make(chan struct{}),
	}
	cs.demand = make([][]float64, opts.Clients)
	for i := range cs.demand {
		cs.demand[i] = make([]float64, opts.Servers)
	}
	cs.wg.Add(1)
	go cs.grantLoop()
	return cs
}

// Serve accepts controller connections until Close.
func (cs *ControllerServer) Serve(ln net.Listener) error {
	cs.mu.Lock()
	cs.ln = ln
	cs.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			cs.mu.Lock()
			closed := cs.closed
			cs.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		cs.wg.Add(1)
		go cs.handle(conn)
	}
}

// Close stops the controller.
func (cs *ControllerServer) Close() {
	cs.mu.Lock()
	if cs.closed {
		cs.mu.Unlock()
		return
	}
	cs.closed = true
	if cs.ln != nil {
		_ = cs.ln.Close()
	}
	for _, st := range cs.clients {
		_ = st.conn.Close()
	}
	cs.mu.Unlock()
	close(cs.stopCh)
	cs.wg.Wait()
}

func (cs *ControllerServer) handle(conn net.Conn) {
	defer cs.wg.Done()
	st := newConnState(conn)
	defer st.close()
	r := bufio.NewReader(conn)
	registered := -1
	for {
		msg, err := wire.ReadMessage(r)
		if err != nil {
			if registered >= 0 {
				cs.mu.Lock()
				if cs.clients[registered] == st {
					delete(cs.clients, registered)
				}
				cs.mu.Unlock()
			}
			return
		}
		switch m := msg.(type) {
		case *wire.Report:
			cID := int(m.Client)
			if cID < 0 || cID >= cs.opts.Clients {
				continue
			}
			cs.mu.Lock()
			cs.clients[cID] = st
			registered = cID
			for s := 0; s < cs.opts.Servers && s < len(m.Demand); s++ {
				cs.demand[cID][s] += m.Demand[s]
			}
			cs.mu.Unlock()
		case *wire.Ping:
			if st.send(&wire.Pong{Nonce: m.Nonce}) != nil {
				return
			}
		}
	}
}

// grantLoop folds demand into the allocator and pushes grants every
// interval.
func (cs *ControllerServer) grantLoop() {
	defer cs.wg.Done()
	ticker := time.NewTicker(cs.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-cs.stopCh:
			return
		case <-ticker.C:
		}
		cs.mu.Lock()
		cs.ctrl.Report(cs.demand)
		for i := range cs.demand {
			for j := range cs.demand[i] {
				cs.demand[i][j] = 0
			}
		}
		alloc := cs.ctrl.AllocateInterval(float64(cs.opts.Interval.Nanoseconds()))
		targets := make(map[int]*connState, len(cs.clients))
		for c, st := range cs.clients {
			targets[c] = st
		}
		cs.mu.Unlock()
		for c, st := range targets {
			//brb:allow stickyerr a grant to a dead client is moot: its conn teardown unregisters it before the next tick
			_ = st.send(&wire.Grant{Alloc: alloc[c]})
		}
	}
}

// creditGate is the client-side credit state fed by controller grants.
type creditGate struct {
	mu     sync.Mutex
	bal    []float64
	conn   net.Conn
	w      *wire.ConnWriter
	client int
	demand []float64
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// dialCreditGate connects a credit gate over the given dense server count
// (shard·R+replica — the controller is layout-agnostic) and starts its
// report/grant loops.
func dialCreditGate(addr string, servers, client int, dialTimeout, interval time.Duration) (*creditGate, error) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	g := &creditGate{
		bal:    make([]float64, servers),
		demand: make([]float64, servers),
		conn:   conn,
		w:      wire.NewConnWriter(conn),
		client: client,
		stopCh: make(chan struct{}),
	}
	g.wg.Add(2)
	go g.readLoop()
	go g.reportLoop(interval)
	return g, nil
}

// balance and spend bounds-check the stable server ID: the gate's
// vectors are sized to the topology at attach time, and servers added
// by a later rebalance (IDs past the end) run uncredited — balance 0,
// spend unreported — until the client re-attaches.
func (g *creditGate) balance(s int) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s < 0 || s >= len(g.bal) {
		return 0
	}
	return g.bal[s]
}

func (g *creditGate) spend(s int, cost float64) {
	g.mu.Lock()
	if s >= 0 && s < len(g.bal) {
		g.bal[s] -= cost
		g.demand[s] += cost
	}
	g.mu.Unlock()
}

func (g *creditGate) readLoop() {
	defer g.wg.Done()
	r := bufio.NewReader(g.conn)
	for {
		msg, err := wire.ReadMessage(r)
		if err != nil {
			return
		}
		if grant, ok := msg.(*wire.Grant); ok {
			g.mu.Lock()
			for i := 0; i < len(g.bal) && i < len(grant.Alloc); i++ {
				g.bal[i] += grant.Alloc[i]
				if burst := 2 * grant.Alloc[i]; g.bal[i] > burst {
					g.bal[i] = burst
				}
				if floor := -4 * grant.Alloc[i]; g.bal[i] < floor {
					g.bal[i] = floor
				}
			}
			g.mu.Unlock()
		}
	}
}

func (g *creditGate) reportLoop(interval time.Duration) {
	defer g.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stopCh:
			return
		case <-ticker.C:
		}
		g.mu.Lock()
		snap := make([]float64, len(g.demand))
		copy(snap, g.demand)
		for i := range g.demand {
			g.demand[i] = 0
		}
		g.mu.Unlock()
		if err := g.w.Send(&wire.Report{Client: uint32(g.client), Demand: snap}); err != nil {
			return
		}
	}
}

func (g *creditGate) close() {
	close(g.stopCh)
	_ = g.conn.Close()
	_ = g.w.Close()
	g.wg.Wait()
}
