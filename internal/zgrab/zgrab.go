// Package zgrab implements the application-layer scanner of the
// methodology — the stand-in for ZGrab2 with the IoT protocol support the
// authors added to it (Section 3.3: "We add support for these IoT
// protocols to ZGrab2 and we use it to collect TLS certificates from
// these IPv6 addresses").
//
// A Scanner probes (address, port, protocol) targets through any dialer
// (the virtual fabric in the simulation, net.Dialer on a real network),
// performs TLS handshakes, records certificates only from completed
// handshakes, and fingerprints the protocol behind the port via MQTT
// CONNECT, HTTP GET, AMQP protocol-header, or CoAP discovery probes.
//
// Ethical controls from Section 3.7 are built in: a token-bucket rate
// limit ("the load measurement is very low"), randomized target order
// ("randomized spread of load"), and one probe per target.
package zgrab

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"iotmap/internal/amqp"
	"iotmap/internal/certmodel"
	"iotmap/internal/coap"
	"iotmap/internal/hitlist"
	"iotmap/internal/mqtt"
	"iotmap/internal/proto"
	"iotmap/internal/simrand"
)

// Dialer abstracts net.Dialer and vnet.Fabric.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Target is one probe instruction.
type Target struct {
	Addr     netip.Addr
	Port     uint16
	Protocol proto.Protocol
	// ServerName, when set, is sent as TLS SNI. Certless wide scans
	// leave it empty — exactly why SNI-required backends stay dark to
	// them.
	ServerName string
}

// IoTTargets turns hitlist entries into the custom IPv6 scan's probes
// (Section 3.3): 443 as HTTPS, 8883 as MQTTS, 1883 as MQTT and 5671 as
// AMQPS, in entry order and, within an entry, port order. Other ports
// are skipped.
func IoTTargets(entries []hitlist.Entry) []Target {
	var targets []Target
	for _, e := range entries {
		for _, port := range e.Ports {
			var pr proto.Protocol
			switch port {
			case 443:
				pr = proto.HTTPS
			case 8883:
				pr = proto.MQTTS
			case 1883:
				pr = proto.MQTT
			case 5671:
				pr = proto.AMQPS
			default:
				continue
			}
			targets = append(targets, Target{Addr: e.Addr, Port: port, Protocol: pr})
		}
	}
	return targets
}

// Endpoint returns the dialable address.
func (t Target) Endpoint() netip.AddrPort { return netip.AddrPortFrom(t.Addr, t.Port) }

// Result is one probe outcome.
type Result struct {
	Target    Target
	Connected bool
	// TLSDone reports a completed TLS handshake.
	TLSDone bool
	// Cert is the leaf certificate metadata, present only when the
	// handshake completed (Section 3.3's failure semantics).
	Cert *certmodel.Spec
	// Banner is the protocol fingerprint, e.g. "mqtt: refused: not
	// authorized", "HTTP/1.1 200 OK", "AMQP(0) 1.0.0".
	Banner string
	// Err carries the failure description for diagnostics.
	Err string
}

// Scanner drives probes.
type Scanner struct {
	Dialer Dialer
	// Timeout bounds a single probe end-to-end. Zero means 3s.
	Timeout time.Duration
	// ClientCert, when set, is offered to mutual-TLS endpoints.
	ClientCert *tls.Certificate
	// Rate caps probes per second across the scan (0 = unlimited).
	Rate float64
	// Concurrency bounds in-flight probes (0 = 8).
	Concurrency int
	// Seed randomizes target order.
	Seed int64
}

// Probe scans one target.
func (s *Scanner) Probe(ctx context.Context, t Target) Result {
	res := Result{Target: t}
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 3 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	network := "tcp"
	if t.Protocol.DefaultTransport() == proto.UDP {
		network = "udp"
	}
	conn, err := s.Dialer.DialContext(ctx, network, t.Endpoint().String())
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer conn.Close()
	res.Connected = true
	_ = conn.SetDeadline(time.Now().Add(timeout))

	if t.Protocol.TLSCapable() {
		conf := &tls.Config{
			InsecureSkipVerify: true, // scanners harvest, they don't trust
			ServerName:         t.ServerName,
		}
		if s.ClientCert != nil {
			conf.Certificates = []tls.Certificate{*s.ClientCert}
		}
		tc := tls.Client(conn, conf)
		if err := tc.Handshake(); err != nil {
			res.Err = "tls: " + err.Error()
			return res
		}
		res.TLSDone = true
		state := tc.ConnectionState()
		if len(state.PeerCertificates) > 0 {
			spec := certmodel.SpecFromX509(state.PeerCertificates[0])
			res.Cert = &spec
		}
		conn = tc
	}

	banner, err := s.protocolProbe(conn, t)
	if err != nil {
		res.Err = "probe: " + err.Error()
		return res
	}
	res.Banner = banner
	return res
}

func (s *Scanner) protocolProbe(conn net.Conn, t Target) (string, error) {
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 3 * time.Second
	}
	switch t.Protocol {
	case proto.MQTT, proto.MQTTS:
		ack, err := mqtt.ClientHandshake(conn, &mqtt.Connect{
			ClientID:     "zgrab-probe",
			CleanSession: true,
			KeepAlive:    10,
		}, timeout)
		if err != nil {
			return "", err
		}
		return "mqtt: " + ack.Code.String(), nil
	case proto.HTTP, proto.HTTPS:
		host := t.ServerName
		if host == "" {
			host = t.Addr.String()
		}
		if _, err := fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: %s\r\nUser-Agent: zgrab-lite/1.0\r\nConnection: close\r\n\r\n", host); err != nil {
			return "", err
		}
		buf := make([]byte, 256)
		n, err := conn.Read(buf)
		if err != nil {
			return "", err
		}
		line := string(buf[:n])
		if i := strings.IndexAny(line, "\r\n"); i >= 0 {
			line = line[:i]
		}
		return line, nil
	case proto.AMQPS:
		theirs, err := amqp.ClientHello(conn, amqp.V10, timeout)
		if err != nil {
			return "", err
		}
		return theirs.String(), nil
	case proto.CoAP, proto.CoAPS:
		req := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET, MessageID: 0x5CA0, Token: []byte{0x5C}}
		req.SetPath(coap.WellKnownCore)
		wire, err := req.Marshal()
		if err != nil {
			return "", err
		}
		if _, err := conn.Write(wire); err != nil {
			return "", err
		}
		buf := make([]byte, 2048)
		n, err := conn.Read(buf)
		if err != nil {
			return "", err
		}
		resp, err := coap.Unmarshal(buf[:n])
		if err != nil {
			return "", err
		}
		return "coap: " + resp.Code.String(), nil
	default:
		// Banner grab: read whatever the service announces.
		buf := make([]byte, 128)
		n, err := conn.Read(buf)
		if err != nil {
			return "", err
		}
		return strings.TrimSpace(string(buf[:n])), nil
	}
}

// Scan probes every target with bounded concurrency and rate limiting,
// in randomized order, returning results sorted by endpoint for
// determinism.
func (s *Scanner) Scan(ctx context.Context, targets []Target) []Result {
	shuffled := make([]Target, len(targets))
	copy(shuffled, targets)
	rng := simrand.New(s.Seed)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	conc := s.Concurrency
	if conc <= 0 {
		conc = 8
	}
	var limiter *time.Ticker
	if s.Rate > 0 {
		interval := time.Duration(float64(time.Second) / s.Rate)
		if interval > 0 {
			limiter = time.NewTicker(interval)
			defer limiter.Stop()
		}
	}

	results := make([]Result, len(shuffled))
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i, t := range shuffled {
		if limiter != nil {
			select {
			case <-ctx.Done():
				results[i] = Result{Target: t, Err: ctx.Err().Error()}
				continue
			case <-limiter.C:
			}
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, t Target) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = s.Probe(ctx, t)
		}(i, t)
	}
	wg.Wait()
	sort.Slice(results, func(i, j int) bool {
		a, b := results[i].Target, results[j].Target
		if a.Addr != b.Addr {
			return a.Addr.Less(b.Addr)
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.Protocol < b.Protocol
	})
	return results
}

// WithCerts filters results down to those that harvested a certificate.
func WithCerts(results []Result) []Result {
	var out []Result
	for _, r := range results {
		if r.Cert != nil {
			out = append(out, r)
		}
	}
	return out
}
