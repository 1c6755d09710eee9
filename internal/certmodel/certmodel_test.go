package certmodel

import (
	"crypto/tls"
	"net"
	"regexp"
	"testing"
	"time"
)

func TestSpecValidAt(t *testing.T) {
	t0 := time.Date(2022, 2, 28, 0, 0, 0, 0, time.UTC)
	s := Spec{SubjectCN: "x", NotBefore: t0, NotAfter: t0.Add(48 * time.Hour)}
	if !s.ValidAt(t0.Add(time.Hour)) {
		t.Fatal("inside window invalid")
	}
	if s.ValidAt(t0.Add(-time.Hour)) || s.ValidAt(t0.Add(72*time.Hour)) {
		t.Fatal("outside window valid")
	}
}

func TestAllNamesDedup(t *testing.T) {
	s := Spec{SubjectCN: "GW.Example.COM", DNSNames: []string{"gw.example.com", "alt.example.com.", ""}}
	names := s.AllNames()
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
	if names[0] != "gw.example.com" || names[1] != "alt.example.com" {
		t.Fatalf("names = %v", names)
	}
}

func TestMatchesRegexp(t *testing.T) {
	amazon := regexp.MustCompile(`(.+)(\.iot\.)([[:alnum:]]+(-[[:alnum:]]+)+)?(\.amazonaws\.com\.$)`)
	s := Spec{DNSNames: []string{"*.iot.us-east-1.amazonaws.com"}}
	if !s.MatchesRegexp(amazon) {
		t.Fatal("wildcard SAN did not match provider regex")
	}
	other := Spec{DNSNames: []string{"www.amazon.com"}}
	if other.MatchesRegexp(amazon) {
		t.Fatal("retail domain matched IoT regex")
	}
}

func TestIssueAndHandshake(t *testing.T) {
	ca, err := NewCA("IoT Study")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue(Spec{
		SubjectCN: "gw1.iot.eu-central-1.example-iot.net",
		DNSNames:  []string{"gw1.iot.eu-central-1.example-iot.net"},
		Issuer:    "IoT Study",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Real TLS handshake over a pipe, verified against the CA pool.
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	srvDone := make(chan error, 1)
	go func() {
		s := tls.Server(server, &tls.Config{Certificates: []tls.Certificate{cert}})
		srvDone <- s.Handshake()
	}()
	c := tls.Client(client, &tls.Config{
		RootCAs:    ca.Pool,
		ServerName: "gw1.iot.eu-central-1.example-iot.net",
	})
	if err := c.Handshake(); err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-srvDone; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	state := c.ConnectionState()
	got := SpecFromX509(state.PeerCertificates[0])
	if got.SubjectCN != "gw1.iot.eu-central-1.example-iot.net" {
		t.Fatalf("round-trip spec = %+v", got)
	}
	if got.SelfSigned {
		t.Fatal("CA-signed leaf flagged self-signed")
	}
}

func TestIssueSelfSigned(t *testing.T) {
	ca, err := NewCA("unused")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue(Spec{SubjectCN: "standalone.iot.local", SelfSigned: true})
	if err != nil {
		t.Fatal(err)
	}
	got := SpecFromX509(cert.Leaf)
	if !got.SelfSigned {
		t.Fatal("self-signed leaf not detected")
	}
}

func TestSpecFromX509Validity(t *testing.T) {
	ca, err := NewCA("V")
	if err != nil {
		t.Fatal(err)
	}
	nb := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	na := nb.Add(90 * 24 * time.Hour)
	cert, err := ca.Issue(Spec{SubjectCN: "v.example", NotBefore: nb, NotAfter: na})
	if err != nil {
		t.Fatal(err)
	}
	got := SpecFromX509(cert.Leaf)
	if !got.NotBefore.Equal(nb) || !got.NotAfter.Equal(na) {
		t.Fatalf("validity = %v..%v", got.NotBefore, got.NotAfter)
	}
	if !got.ValidAt(time.Date(2022, 2, 28, 0, 0, 0, 0, time.UTC)) {
		t.Fatal("study date not inside validity")
	}
}
