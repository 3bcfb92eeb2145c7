package main

import (
	"io"
	"net"
	"sync"
)

// faultProxy fronts one server address with a local TCP proxy so the
// run can sever and restore the replica's connectivity without owning
// the server process: while severed, live proxied connections are cut
// and new dials are accepted then dropped before any byte flows, so the
// client's revival probe keeps failing until the restore.
type faultProxy struct {
	ln     net.Listener
	target string

	mu      sync.Mutex
	severed bool
	conns   map[net.Conn]struct{} // live client-side connections
}

func newFaultProxy(target string) (*faultProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &faultProxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go func() { // returns when close closes the listener
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.forward(conn)
		}
	}()
	return p, nil
}

func (p *faultProxy) addr() string { return p.ln.Addr().String() }

// forward pipes one client connection to the target until either side
// closes it or the proxy is severed.
func (p *faultProxy) forward(conn net.Conn) {
	defer conn.Close()
	backend, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer backend.Close()
	p.mu.Lock()
	if p.severed {
		p.mu.Unlock()
		return
	}
	p.conns[conn] = struct{}{}
	p.mu.Unlock()
	go func() {
		_, _ = io.Copy(backend, conn)
		_ = backend.Close() // ends the copy below
	}()
	_, _ = io.Copy(conn, backend)
	p.mu.Lock()
	delete(p.conns, conn)
	p.mu.Unlock()
}

// sever cuts (true) or restores (false) connectivity through the proxy.
func (p *faultProxy) sever(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.severed = on; on {
		for c := range p.conns {
			_ = c.Close() // forward unregisters it
		}
	}
}

// close stops the proxy for good.
func (p *faultProxy) close() {
	_ = p.ln.Close()
	p.sever(true)
}
