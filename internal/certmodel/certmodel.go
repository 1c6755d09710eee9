// Package certmodel provides the TLS certificate substrate. A Spec is the
// lightweight metadata record the Censys-style snapshot stores for every
// scanned endpoint (names, validity, issuer); Issue turns a Spec into a
// real crypto/x509 certificate for the code paths that perform live TLS
// handshakes (internal/iotserver and internal/zgrab).
//
// Splitting metadata from key material keeps world construction cheap —
// hundreds of thousands of scan records need no key generation — while the
// handshake paths stay honest: SNI-required and client-cert-required
// behaviours (Section 3.3) are enforced by real TLS stacks in tests.
package certmodel

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"regexp"
	"strings"
	"time"
)

// Spec is certificate metadata: everything the discovery pipeline reads
// from a scan snapshot.
type Spec struct {
	// SubjectCN is the subject common name.
	SubjectCN string
	// DNSNames are the SAN dNSName entries; matching happens here.
	DNSNames []string
	// Issuer is the issuing organization.
	Issuer string
	// NotBefore and NotAfter bound validity; the pipeline only trusts
	// certificates valid during the study period (Section 3.3).
	NotBefore time.Time
	NotAfter  time.Time
	// SelfSigned marks certificates outside any web PKI chain.
	SelfSigned bool
}

// ValidAt reports whether the certificate is valid at t.
func (s Spec) ValidAt(t time.Time) bool {
	return !t.Before(s.NotBefore) && !t.After(s.NotAfter)
}

// AllNames returns SubjectCN plus SANs, deduplicated, lower-cased.
func (s Spec) AllNames() []string {
	seen := map[string]struct{}{}
	var out []string
	add := func(n string) {
		n = strings.ToLower(strings.TrimSuffix(n, "."))
		if n == "" {
			return
		}
		if _, dup := seen[n]; dup {
			return
		}
		seen[n] = struct{}{}
		out = append(out, n)
	}
	add(s.SubjectCN)
	for _, n := range s.DNSNames {
		add(n)
	}
	return out
}

// MatchCandidates returns the exact strings the domain regexes are run
// against: every certificate name in trailing-dot FQDN form, with wildcard
// names expanded with a representative label, mirroring how the paper
// matches "*.iot.us-east-1.amazonaws.com" style SANs against its domain
// regexes. Index builders cache this slice so matching never re-derives it.
func (s Spec) MatchCandidates() []string {
	names := s.AllNames()
	for i, n := range names {
		if strings.HasPrefix(n, "*.") {
			n = "wildcard" + n[1:]
		}
		names[i] = n + "."
	}
	return names
}

// MatchesRegexp reports whether any certificate name matches re.
func (s Spec) MatchesRegexp(re *regexp.Regexp) bool {
	for _, c := range s.MatchCandidates() {
		if re.MatchString(c) {
			return true
		}
	}
	return false
}

// CA is a self-signed issuing authority for leaf certificates.
type CA struct {
	cert *x509.Certificate
	key  *ecdsa.PrivateKey
	// Pool contains just this CA, for client-side verification in tests.
	Pool *x509.CertPool
}

// NewCA creates a CA with the given organization name.
func NewCA(org string) (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{Organization: []string{org}, CommonName: org + " Root CA"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(10 * 365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	return &CA{cert: cert, key: key, Pool: pool}, nil
}

// Issue creates a TLS server (or client) certificate for spec, signed by
// the CA — or self-signed when spec.SelfSigned is set.
func (ca *CA) Issue(spec Spec) (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, err
	}
	serial, err := rand.Int(rand.Reader, big.NewInt(1<<62))
	if err != nil {
		return tls.Certificate{}, err
	}
	notBefore, notAfter := spec.NotBefore, spec.NotAfter
	if notBefore.IsZero() {
		notBefore = time.Now().Add(-time.Hour)
	}
	if notAfter.IsZero() {
		notAfter = time.Now().Add(90 * 24 * time.Hour)
	}
	tmpl := &x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: spec.SubjectCN, Organization: []string{spec.Issuer}},
		DNSNames:     spec.DNSNames,
		NotBefore:    notBefore,
		NotAfter:     notAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
	}
	parent, signKey := ca.cert, ca.key
	if spec.SelfSigned {
		parent, signKey = tmpl, key
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, parent, &key.PublicKey, signKey)
	if err != nil {
		return tls.Certificate{}, err
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return tls.Certificate{}, err
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}, nil
}

// SpecFromX509 extracts the metadata view of a parsed certificate — the
// scanner uses it to turn handshake results back into snapshot records.
func SpecFromX509(c *x509.Certificate) Spec {
	issuer := c.Issuer.CommonName
	if len(c.Issuer.Organization) > 0 {
		issuer = c.Issuer.Organization[0]
	}
	return Spec{
		SubjectCN:  c.Subject.CommonName,
		DNSNames:   append([]string(nil), c.DNSNames...),
		Issuer:     issuer,
		NotBefore:  c.NotBefore,
		NotAfter:   c.NotAfter,
		SelfSigned: c.Subject.String() == c.Issuer.String(),
	}
}
