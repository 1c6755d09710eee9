// Package iotserver implements the Internet-facing gateway servers of an
// IoT backend (Figure 1's "Internet-facing Gateway"): TLS endpoints with
// the three certificate policies the methodology distinguishes, and the
// application protocols behind them (MQTT, HTTP, AMQP, CoAP).
//
// The three TLS policies drive Figure 3's per-source contribution:
//
//   - PolicyDefaultCert: certless scans harvest the default certificate
//     (Microsoft/SAP/Tencent: ≈100% discovered via Censys).
//   - PolicyRequireSNI: no certificate without the right server name
//     (Google: <2% via Censys, discovered via passive DNS instead).
//   - PolicyRequireClientCert: the handshake fails without mutual TLS
//     (Amazon's MQTT endpoints).
package iotserver

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"time"

	"iotmap/internal/amqp"
	"iotmap/internal/certmodel"
	"iotmap/internal/coap"
	"iotmap/internal/mqtt"
	"iotmap/internal/proto"
	"iotmap/internal/vnet"
)

// TLSPolicy selects the endpoint's certificate behaviour.
type TLSPolicy uint8

// Policies; see the package comment.
const (
	PolicyNone TLSPolicy = iota
	PolicyDefaultCert
	PolicyRequireSNI
	PolicyRequireClientCert
)

// String names the policy.
func (p TLSPolicy) String() string {
	switch p {
	case PolicyNone:
		return "no-tls"
	case PolicyDefaultCert:
		return "default-cert"
	case PolicyRequireSNI:
		return "require-sni"
	case PolicyRequireClientCert:
		return "require-client-cert"
	default:
		return "unknown"
	}
}

// Endpoint is one gateway endpoint bound to the fabric.
type Endpoint struct {
	Addr     netip.AddrPort
	Protocol proto.Protocol
	Policy   TLSPolicy
	// Hostnames are the names the endpoint serves; the first is the
	// default certificate's subject.
	Hostnames []string
	// RequireMQTTAuth makes the broker refuse anonymous CONNECTs with
	// "not authorized" instead of accepting them.
	RequireMQTTAuth bool
}

// Gateway deploys endpoints for one backend into a vnet fabric, issuing
// real certificates from the study CA.
type Gateway struct {
	fabric *vnet.Fabric
	ca     *certmodel.CA
}

// NewGateway returns a Gateway issuing from ca onto fabric.
func NewGateway(fabric *vnet.Fabric, ca *certmodel.CA) *Gateway {
	return &Gateway{fabric: fabric, ca: ca}
}

// handshakeTimeout bounds one protocol exchange on the server side.
const handshakeTimeout = 5 * time.Second

// Bind issues certificates as needed and registers the endpoint.
func (g *Gateway) Bind(ep Endpoint) error {
	if len(ep.Hostnames) == 0 && ep.Policy != PolicyNone {
		return fmt.Errorf("iotserver: TLS endpoint %v needs hostnames", ep.Addr)
	}
	var tlsConf *tls.Config
	if ep.Policy != PolicyNone {
		cert, err := g.ca.Issue(certmodel.Spec{
			SubjectCN: ep.Hostnames[0],
			DNSNames:  ep.Hostnames,
			Issuer:    "IoT Study CA",
		})
		if err != nil {
			return err
		}
		tlsConf = g.tlsConfig(ep, cert)
	}
	handler := g.protocolHandler(ep, tlsConf)
	return g.fabric.Listen(ep.Addr, handler)
}

// errNoSNI is what a require-SNI endpoint returns to certless scans.
var errNoSNI = errors.New("iotserver: server name required")

func (g *Gateway) tlsConfig(ep Endpoint, cert tls.Certificate) *tls.Config {
	conf := &tls.Config{Certificates: []tls.Certificate{cert}}
	switch ep.Policy {
	case PolicyRequireSNI:
		served := map[string]bool{}
		for _, h := range ep.Hostnames {
			served[strings.ToLower(h)] = true
		}
		conf.GetCertificate = func(chi *tls.ClientHelloInfo) (*tls.Certificate, error) {
			name := strings.ToLower(chi.ServerName)
			if name == "" || !served[name] {
				return nil, errNoSNI
			}
			return &cert, nil
		}
		conf.Certificates = nil
	case PolicyRequireClientCert:
		conf.ClientAuth = tls.RequireAnyClientCert
		// Pin TLS 1.2: under 1.3 a certless client only learns about the
		// rejection on first read, but the paper's premise (and 2022-era
		// mTLS IoT brokers) is that "in the absence of this certificate,
		// the TLS handshake will fail" — observable at handshake time.
		conf.MaxVersion = tls.VersionTLS12
	}
	return conf
}

func (g *Gateway) protocolHandler(ep Endpoint, tlsConf *tls.Config) vnet.Handler {
	return func(conn net.Conn) {
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
		if tlsConf != nil {
			tc := tls.Server(conn, tlsConf)
			if err := tc.Handshake(); err != nil {
				return
			}
			conn = tc
		}
		switch ep.Protocol {
		case proto.MQTT, proto.MQTTS:
			policy := mqtt.AcceptAll
			if ep.RequireMQTTAuth {
				policy = mqtt.RequireAuth
			}
			if _, code, err := mqtt.ServerHandshake(conn, policy, handshakeTimeout); err != nil || code != mqtt.ConnAccepted {
				return
			}
			_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
			_ = mqtt.Echo(conn)
		case proto.HTTP, proto.HTTPS:
			serveHTTP(conn, ep.Hostnames)
		case proto.AMQPS:
			if _, err := amqp.ServerHello(conn, amqp.V10, handshakeTimeout); err != nil {
				return
			}
			// Swallow one frame (an open attempt) then close, like a
			// broker rejecting unauthenticated containers.
			_, _ = amqp.ReadFrame(conn)
		case proto.CoAP, proto.CoAPS:
			serveCoAPStream(conn)
		default:
			// Agnostic/OPC-UA/ActiveMQ endpoints accept the connection
			// and emit a short banner, enough for port fingerprinting.
			fmt.Fprintf(conn, "%s gateway ready\r\n", ep.Protocol)
		}
	}
}

// serveHTTP answers one HTTP/1.1 request with a minimal IoT-gateway
// banner response.
func serveHTTP(conn net.Conn, hostnames []string) {
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[2], "HTTP/1.") {
		fmt.Fprint(conn, "HTTP/1.1 400 Bad Request\r\nConnection: close\r\n\r\n")
		return
	}
	// Drain headers.
	for {
		h, err := br.ReadString('\n')
		if err != nil || h == "\r\n" || h == "\n" {
			break
		}
	}
	host := ""
	if len(hostnames) > 0 {
		host = hostnames[0]
	}
	body := fmt.Sprintf("{\"service\":\"iot-gateway\",\"host\":%q}\n", host)
	fmt.Fprintf(conn,
		"HTTP/1.1 200 OK\r\nServer: iot-gateway/1.0\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		len(body), body)
}

// coapDiscovery only reads its links, so every connection shares it.
var coapDiscovery = coap.DiscoveryHandler([]string{"/iot/telemetry", "/iot/cmd"})

// serveCoAPStream runs one CoAP request/response over a stream transport
// (the fabric's stand-in for a UDP datagram exchange).
func serveCoAPStream(conn net.Conn) {
	buf := make([]byte, 2048)
	n, err := conn.Read(buf)
	if err != nil {
		return
	}
	req, err := coap.Unmarshal(buf[:n])
	if err != nil {
		return
	}
	wire, err := coapDiscovery(req).Marshal()
	if err != nil {
		return
	}
	_, _ = conn.Write(wire)
}
