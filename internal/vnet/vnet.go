// Package vnet provides the virtual network fabric the simulated Internet
// runs on: services register on netip.AddrPort endpoints, and clients dial
// them through a net.Dialer-compatible interface that returns real
// net.Conn pairs (net.Pipe). TLS stacks, the MQTT/AMQP handshakes and the
// scanner all operate unmodified on top.
//
// The fabric injects connect latency and refusals so scan code exercises
// its timeout and error paths.
package vnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// Handler serves one accepted connection. It runs on its own goroutine
// and owns the conn (must close it).
type Handler func(conn net.Conn)

// Errors returned by the fabric.
var (
	ErrConnRefused = errors.New("vnet: connection refused")
	ErrClosed      = errors.New("vnet: fabric closed")
	ErrInUse       = errors.New("vnet: endpoint already bound")
)

// Fabric is the in-process network. The zero value is not usable; call New.
type Fabric struct {
	mu        sync.RWMutex
	closed    bool
	listeners map[netip.AddrPort]Handler
	// ConnectLatency is applied to every successful or refused dial,
	// standing in for propagation delay.
	ConnectLatency time.Duration
	// wg tracks handler goroutines so Close can drain them.
	wg sync.WaitGroup
}

// New returns an empty fabric.
func New() *Fabric {
	return &Fabric{
		listeners: map[netip.AddrPort]Handler{},
	}
}

// Listen binds handler to the endpoint.
func (f *Fabric) Listen(ep netip.AddrPort, h Handler) error {
	if h == nil {
		return fmt.Errorf("vnet: nil handler")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if _, exists := f.listeners[ep]; exists {
		return ErrInUse
	}
	f.listeners[ep] = h
	return nil
}

// DialContext implements the dialer contract used by net/http, crypto/tls
// wrappers and our scanner. network must be "tcp"/"tcp4"/"tcp6"/"udp";
// the fabric does not distinguish transport semantics — datagram
// protocols run request/response over the pipe.
func (f *Fabric) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	switch network {
	case "tcp", "tcp4", "tcp6", "udp", "udp4", "udp6":
	default:
		return nil, fmt.Errorf("vnet: unsupported network %q", network)
	}
	ep, err := netip.ParseAddrPort(address)
	if err != nil {
		return nil, fmt.Errorf("vnet: bad address %q: %w", address, err)
	}
	if f.ConnectLatency > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(f.ConnectLatency):
		}
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	h, ok := f.listeners[ep]
	if !ok {
		f.mu.Unlock()
		return nil, &net.OpError{Op: "dial", Net: network, Err: ErrConnRefused}
	}
	f.wg.Add(1)
	f.mu.Unlock()

	client, server := net.Pipe()
	go func() {
		defer f.wg.Done()
		h(server)
	}()
	return &addrConn{Conn: client, local: randomClientEP(), remote: ep}, nil
}

// Close unbinds everything and waits for running handlers to return.
// Handlers observe closed pipes once their peers vanish.
func (f *Fabric) Close() {
	f.mu.Lock()
	f.closed = true
	f.listeners = map[netip.AddrPort]Handler{}
	f.mu.Unlock()
	f.wg.Wait()
}

// addrConn decorates a pipe conn with meaningful endpoint addresses so
// TLS ServerName inference and logging behave as on a real network.
type addrConn struct {
	net.Conn
	local, remote netip.AddrPort
}

type vAddr struct{ ap netip.AddrPort }

func (a vAddr) Network() string { return "vnet" }
func (a vAddr) String() string  { return a.ap.String() }

// LocalAddr returns the synthetic client endpoint.
func (c *addrConn) LocalAddr() net.Addr { return vAddr{c.local} }

// RemoteAddr returns the dialed endpoint.
func (c *addrConn) RemoteAddr() net.Addr { return vAddr{c.remote} }

var clientEPCounter struct {
	mu sync.Mutex
	n  uint32
}

// randomClientEP fabricates a unique client address for LocalAddr.
func randomClientEP() netip.AddrPort {
	clientEPCounter.mu.Lock()
	clientEPCounter.n++
	n := clientEPCounter.n
	clientEPCounter.mu.Unlock()
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{100, 64, byte(n >> 8), byte(n)}), 40000+uint16(n%20000))
}
