package vnet

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"iotmap/internal/certmodel"
)

func ep(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

func echoHandler(conn net.Conn) {
	defer conn.Close()
	_, _ = io.Copy(conn, conn)
}

func TestDialAndEcho(t *testing.T) {
	f := New()
	defer f.Close()
	if err := f.Listen(ep("10.0.0.1:8883"), echoHandler); err != nil {
		t.Fatal(err)
	}
	conn, err := f.DialContext(context.Background(), "tcp", "10.0.0.1:8883")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("ping")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("echo = %q", buf)
	}
	if conn.RemoteAddr().String() != "10.0.0.1:8883" {
		t.Fatalf("remote = %v", conn.RemoteAddr())
	}
}

func TestDialRefused(t *testing.T) {
	f := New()
	defer f.Close()
	_, err := f.DialContext(context.Background(), "tcp", "10.0.0.2:443")
	if err == nil {
		t.Fatal("dial to unbound endpoint succeeded")
	}
	var op *net.OpError
	if !errors.As(err, &op) || !errors.Is(op.Err, ErrConnRefused) {
		t.Fatalf("err = %v", err)
	}
}

func TestDialErrors(t *testing.T) {
	f := New()
	defer f.Close()
	if _, err := f.DialContext(context.Background(), "unix", "10.0.0.1:1"); err == nil {
		t.Fatal("bad network accepted")
	}
	if _, err := f.DialContext(context.Background(), "tcp", "not-an-addr"); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestListenConflictAndUnlisten(t *testing.T) {
	f := New()
	defer f.Close()
	if err := f.Listen(ep("10.0.0.1:443"), echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := f.Listen(ep("10.0.0.1:443"), echoHandler); err != ErrInUse {
		t.Fatalf("conflict err = %v", err)
	}
	f.Unlisten(ep("10.0.0.1:443"))
	if err := f.Listen(ep("10.0.0.1:443"), echoHandler); err != nil {
		t.Fatalf("rebind after unlisten: %v", err)
	}
	if err := f.Listen(ep("10.0.0.1:444"), nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

// Endpoints returns all bound endpoints, sorted.
func (f *Fabric) Endpoints() []netip.AddrPort {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]netip.AddrPort, 0, len(f.listeners))
	for a := range f.listeners {
		out = append(out, a)
	}
	slices.SortFunc(out, netip.AddrPort.Compare)
	return out
}

func TestEndpointsSorted(t *testing.T) {
	f := New()
	defer f.Close()
	for _, e := range []string{"10.0.0.2:443", "10.0.0.1:8883", "10.0.0.1:443"} {
		if err := f.Listen(ep(e), echoHandler); err != nil {
			t.Fatal(err)
		}
	}
	eps := f.Endpoints()
	if len(eps) != 3 || eps[0].String() != "10.0.0.1:443" || eps[2].String() != "10.0.0.2:443" {
		t.Fatalf("endpoints = %v", eps)
	}
}

func TestConnectLatencyAndContext(t *testing.T) {
	f := New()
	defer f.Close()
	f.ConnectLatency = 20 * time.Millisecond
	if err := f.Listen(ep("10.0.0.1:80"), echoHandler); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c, err := f.DialContext(context.Background(), "tcp", "10.0.0.1:80")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("latency not applied")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := f.DialContext(ctx, "tcp", "10.0.0.1:80"); err == nil {
		t.Fatal("context deadline ignored")
	}
}

func TestCloseRefusesNewDials(t *testing.T) {
	f := New()
	if err := f.Listen(ep("10.0.0.1:80"), echoHandler); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.DialContext(context.Background(), "tcp", "10.0.0.1:80"); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close dial err = %v", err)
	}
	if err := f.Listen(ep("10.0.0.2:80"), echoHandler); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close listen err = %v", err)
	}
}

func TestConcurrentDials(t *testing.T) {
	f := New()
	defer f.Close()
	if err := f.Listen(ep("10.0.0.1:443"), echoHandler); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := f.DialContext(context.Background(), "tcp", "10.0.0.1:443")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if _, err := c.Write([]byte("x")); err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 1)
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TLS over the fabric: the exact stack the scanner and IoT servers use.
func TestTLSOverFabric(t *testing.T) {
	ca, err := certmodel.NewCA("Fabric Test")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue(certmodel.Spec{
		SubjectCN: "mqtt.fabric.test",
		DNSNames:  []string{"mqtt.fabric.test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := New()
	defer f.Close()
	err = f.Listen(ep("203.0.113.5:8883"), func(conn net.Conn) {
		defer conn.Close()
		s := tls.Server(conn, &tls.Config{Certificates: []tls.Certificate{cert}})
		if err := s.Handshake(); err != nil {
			return
		}
		_, _ = io.Copy(s, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := f.DialContext(context.Background(), "tcp", "203.0.113.5:8883")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := tls.Client(raw, &tls.Config{RootCAs: ca.Pool, ServerName: "mqtt.fabric.test"})
	if err := c.Handshake(); err != nil {
		t.Fatalf("TLS over fabric: %v", err)
	}
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("echo through TLS = %q", buf)
	}
}

// Unlisten removes a binding; missing bindings are ignored.
func (f *Fabric) Unlisten(ep netip.AddrPort) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.listeners, ep)
}
