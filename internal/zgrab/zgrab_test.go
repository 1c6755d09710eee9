package zgrab

import (
	"context"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"iotmap/internal/certmodel"
	"iotmap/internal/hitlist"
	"iotmap/internal/iotserver"
	"iotmap/internal/proto"
	"iotmap/internal/vnet"
)

// testWorld deploys one gateway of each TLS policy onto a fabric.
func testWorld(t *testing.T) (*vnet.Fabric, *certmodel.CA) {
	t.Helper()
	fabric := vnet.New()
	t.Cleanup(fabric.Close)
	ca, err := certmodel.NewCA("ZGrab Test CA")
	if err != nil {
		t.Fatal(err)
	}
	gw := iotserver.NewGateway(fabric, ca)
	endpoints := []iotserver.Endpoint{
		{ // Microsoft-style: default cert, HTTPS.
			Addr: netip.MustParseAddrPort("20.0.0.1:443"), Protocol: proto.HTTPS,
			Policy: iotserver.PolicyDefaultCert, Hostnames: []string{"hub1.azure-devices.test"},
		},
		{ // Microsoft-style: default cert, MQTTS with auth required.
			Addr: netip.MustParseAddrPort("20.0.0.1:8883"), Protocol: proto.MQTTS,
			Policy: iotserver.PolicyDefaultCert, Hostnames: []string{"hub1.azure-devices.test"},
			RequireMQTTAuth: true,
		},
		{ // Google-style: SNI required.
			Addr: netip.MustParseAddrPort("74.125.0.1:8883"), Protocol: proto.MQTTS,
			Policy: iotserver.PolicyRequireSNI, Hostnames: []string{"mqtt.googleapis.test"},
		},
		{ // Amazon-style: client certificate required.
			Addr: netip.MustParseAddrPort("52.0.0.1:8883"), Protocol: proto.MQTTS,
			Policy: iotserver.PolicyRequireClientCert, Hostnames: []string{"a1b2.iot.us-east-1.amazonaws.test"},
		},
		{ // Plaintext MQTT (Baidu-style port 1883).
			Addr: netip.MustParseAddrPort("111.0.0.1:1883"), Protocol: proto.MQTT,
			Policy: iotserver.PolicyNone,
		},
		{ // AMQPS endpoint.
			Addr: netip.MustParseAddrPort("20.0.0.2:5671"), Protocol: proto.AMQPS,
			Policy: iotserver.PolicyDefaultCert, Hostnames: []string{"amqp.bosch-iot.test"},
		},
		{ // CoAP endpoint (UDP-style exchange).
			Addr: netip.MustParseAddrPort("111.0.0.1:5683"), Protocol: proto.CoAP,
			Policy: iotserver.PolicyNone,
		},
	}
	for _, ep := range endpoints {
		if err := gw.Bind(ep); err != nil {
			t.Fatalf("bind %v: %v", ep.Addr, err)
		}
	}
	return fabric, ca
}

func scanner(f *vnet.Fabric) *Scanner {
	return &Scanner{Dialer: f, Timeout: 2 * time.Second, Seed: 1}
}

func TestProbeDefaultCertHTTPS(t *testing.T) {
	f, _ := testWorld(t)
	res := scanner(f).Probe(context.Background(), Target{
		Addr: netip.MustParseAddr("20.0.0.1"), Port: 443, Protocol: proto.HTTPS,
	})
	if !res.Connected || !res.TLSDone || res.Cert == nil {
		t.Fatalf("result = %+v", res)
	}
	if res.Cert.SubjectCN != "hub1.azure-devices.test" {
		t.Fatalf("cert = %+v", res.Cert)
	}
	if !strings.HasPrefix(res.Banner, "HTTP/1.1 200") {
		t.Fatalf("banner = %q", res.Banner)
	}
}

func TestProbeMQTTSRefusalStillFingerprints(t *testing.T) {
	f, _ := testWorld(t)
	res := scanner(f).Probe(context.Background(), Target{
		Addr: netip.MustParseAddr("20.0.0.1"), Port: 8883, Protocol: proto.MQTTS,
	})
	if res.Cert == nil {
		t.Fatalf("no cert from default-cert MQTTS: %+v", res)
	}
	if !strings.Contains(res.Banner, "not authorized") {
		t.Fatalf("banner = %q", res.Banner)
	}
}

func TestProbeSNIRequired(t *testing.T) {
	f, _ := testWorld(t)
	s := scanner(f)
	// Certless scan (no SNI): handshake must fail, no certificate.
	res := s.Probe(context.Background(), Target{
		Addr: netip.MustParseAddr("74.125.0.1"), Port: 8883, Protocol: proto.MQTTS,
	})
	if !res.Connected || res.TLSDone || res.Cert != nil {
		t.Fatalf("certless scan against SNI endpoint = %+v", res)
	}
	// With the right name the handshake completes.
	res = s.Probe(context.Background(), Target{
		Addr: netip.MustParseAddr("74.125.0.1"), Port: 8883, Protocol: proto.MQTTS,
		ServerName: "mqtt.googleapis.test",
	})
	if !res.TLSDone || res.Cert == nil {
		t.Fatalf("SNI scan = %+v", res)
	}
}

func TestProbeClientCertRequired(t *testing.T) {
	f, ca := testWorld(t)
	s := scanner(f)
	// Without a client certificate the handshake fails and no server
	// cert is recorded (the paper's Amazon case).
	res := s.Probe(context.Background(), Target{
		Addr: netip.MustParseAddr("52.0.0.1"), Port: 8883, Protocol: proto.MQTTS,
		ServerName: "a1b2.iot.us-east-1.amazonaws.test",
	})
	if res.TLSDone || res.Cert != nil {
		t.Fatalf("certless mTLS scan = %+v", res)
	}
	// A device with a client certificate connects.
	devCert, err := ca.Issue(certmodel.Spec{SubjectCN: "device-1"})
	if err != nil {
		t.Fatal(err)
	}
	s.ClientCert = &devCert
	res = s.Probe(context.Background(), Target{
		Addr: netip.MustParseAddr("52.0.0.1"), Port: 8883, Protocol: proto.MQTTS,
		ServerName: "a1b2.iot.us-east-1.amazonaws.test",
	})
	if !res.TLSDone || res.Cert == nil || !strings.Contains(res.Banner, "accepted") {
		t.Fatalf("mTLS device scan = %+v", res)
	}
}

func TestProbePlainMQTT(t *testing.T) {
	f, _ := testWorld(t)
	res := scanner(f).Probe(context.Background(), Target{
		Addr: netip.MustParseAddr("111.0.0.1"), Port: 1883, Protocol: proto.MQTT,
	})
	if !res.Connected || res.TLSDone || res.Cert != nil {
		t.Fatalf("plain MQTT = %+v", res)
	}
	if !strings.Contains(res.Banner, "accepted") {
		t.Fatalf("banner = %q", res.Banner)
	}
}

func TestProbeAMQP(t *testing.T) {
	f, _ := testWorld(t)
	res := scanner(f).Probe(context.Background(), Target{
		Addr: netip.MustParseAddr("20.0.0.2"), Port: 5671, Protocol: proto.AMQPS,
	})
	if res.Cert == nil || res.Banner != "AMQP(0) 1.0.0" {
		t.Fatalf("amqp = %+v", res)
	}
}

func TestProbeCoAP(t *testing.T) {
	f, _ := testWorld(t)
	res := scanner(f).Probe(context.Background(), Target{
		Addr: netip.MustParseAddr("111.0.0.1"), Port: 5683, Protocol: proto.CoAP,
	})
	if res.Banner != "coap: 2.05" {
		t.Fatalf("coap = %+v", res)
	}
}

func TestProbeRefusedPort(t *testing.T) {
	f, _ := testWorld(t)
	res := scanner(f).Probe(context.Background(), Target{
		Addr: netip.MustParseAddr("20.0.0.1"), Port: 9999, Protocol: proto.HTTPS,
	})
	if res.Connected || res.Err == "" {
		t.Fatalf("refused probe = %+v", res)
	}
}

func TestScanCampaign(t *testing.T) {
	f, _ := testWorld(t)
	s := scanner(f)
	s.Concurrency = 4
	// The campaign probes hitlist entries: each IoT port is probed with
	// its protocol, and any other port (CoAP's 5683 here) is skipped.
	targets := IoTTargets([]hitlist.Entry{
		{Addr: netip.MustParseAddr("20.0.0.1"), Ports: []uint16{443, 8883}},
		{Addr: netip.MustParseAddr("74.125.0.1"), Ports: []uint16{8883}},
		{Addr: netip.MustParseAddr("52.0.0.1"), Ports: []uint16{8883}},
		{Addr: netip.MustParseAddr("111.0.0.1"), Ports: []uint16{1883, 5683}},
		{Addr: netip.MustParseAddr("20.0.0.2"), Ports: []uint16{5671}},
		{Addr: netip.MustParseAddr("203.0.113.99"), Ports: []uint16{443}}, // dead
	})
	want := []Target{
		{Addr: netip.MustParseAddr("20.0.0.1"), Port: 443, Protocol: proto.HTTPS},
		{Addr: netip.MustParseAddr("20.0.0.1"), Port: 8883, Protocol: proto.MQTTS},
		{Addr: netip.MustParseAddr("74.125.0.1"), Port: 8883, Protocol: proto.MQTTS},
		{Addr: netip.MustParseAddr("52.0.0.1"), Port: 8883, Protocol: proto.MQTTS},
		{Addr: netip.MustParseAddr("111.0.0.1"), Port: 1883, Protocol: proto.MQTT},
		{Addr: netip.MustParseAddr("20.0.0.2"), Port: 5671, Protocol: proto.AMQPS},
		{Addr: netip.MustParseAddr("203.0.113.99"), Port: 443, Protocol: proto.HTTPS},
	}
	if !reflect.DeepEqual(targets, want) {
		t.Fatalf("targets = %v, want %v", targets, want)
	}
	results := s.Scan(context.Background(), targets)
	if len(results) != len(targets) {
		t.Fatalf("results = %d", len(results))
	}
	// Deterministic order by endpoint.
	for i := 1; i < len(results); i++ {
		a, b := results[i-1].Target, results[i].Target
		if b.Addr.Less(a.Addr) {
			t.Fatal("results not sorted")
		}
	}
	certs := WithCerts(results)
	// Default-cert HTTPS + MQTTS + AMQPS harvest certs; SNI, mTLS and
	// plain MQTT do not.
	if len(certs) != 3 {
		t.Fatalf("certs = %d, want 3", len(certs))
	}
}

func TestScanRateLimit(t *testing.T) {
	f, _ := testWorld(t)
	s := scanner(f)
	s.Rate = 50 // 20ms between probes
	targets := []Target{
		{Addr: netip.MustParseAddr("20.0.0.1"), Port: 443, Protocol: proto.HTTPS},
		{Addr: netip.MustParseAddr("20.0.0.1"), Port: 443, Protocol: proto.HTTPS},
		{Addr: netip.MustParseAddr("20.0.0.1"), Port: 443, Protocol: proto.HTTPS},
	}
	start := time.Now()
	s.Scan(context.Background(), targets)
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("rate limit not applied: %v", elapsed)
	}
}

func TestScanContextCancel(t *testing.T) {
	f, _ := testWorld(t)
	s := scanner(f)
	s.Rate = 1 // would take seconds
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	results := s.Scan(ctx, []Target{
		{Addr: netip.MustParseAddr("20.0.0.1"), Port: 443, Protocol: proto.HTTPS},
		{Addr: netip.MustParseAddr("20.0.0.1"), Port: 8883, Protocol: proto.MQTTS},
	})
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancelled scan did not stop")
	}
	for _, r := range results {
		if r.Err == "" {
			t.Fatalf("cancelled probe succeeded: %+v", r)
		}
	}
}
