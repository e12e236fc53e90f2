package gateway

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzGatewayAuth drives the full untrusted-input path — bearer-token
// extraction from a raw request head followed by table lookup — with
// arbitrary bytes. Invariants: never panic, malformed auth always
// yields a typed *AuthError (the wire 401), and a lookup may only ever
// resolve to the tenant whose exact token was presented — hostile
// bytes can never surface another tenant's identity.
func FuzzGatewayAuth(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nAuthorization: Bearer tok-alice\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nauthorization: bearer tok-bob\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nHost: h\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nAuthorization: Basic dXNlcg==\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nAuthorization: Bearer\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nAuthorization: Bearer a b c\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nAuthorization: Bearer t1\r\nAuthorization: Bearer t2\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nAuthorization: Bearer " + strings.Repeat("x", 400) + "\r\n\r\n"))
	f.Add([]byte("\r\n\r\n"))
	f.Add([]byte(""))
	f.Add([]byte("garbage\x00\xff\r\nAuthorization:Bearer tok-alice\r\n"))
	f.Add([]byte("Authorization: Bearer tok-alice"))                             // header on the request line: must not authenticate
	f.Add([]byte("GET  / HTTP/1.1\r\nAuthorization: Bearer tok-alice\r\n\r\n"))  // double space
	f.Add([]byte("GET / HTTP/1.1 \r\nAuthorization: Bearer tok-alice \r\n\r\n")) // trailing spaces
	f.Add([]byte("GET / HTTP/1.1\r\n\r\nAuthorization: Bearer tok-alice\r\n\r\n"))
	f.Add([]byte("\r\nAuthorization: Bearer tok-bob\r\n\r\n")) // empty request line
	f.Add([]byte("GET / HTTP/1.1\r\n" + strings.Repeat("h: v\r\n", 101) + "Authorization: Bearer tok-bob\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\nAuthorization: Bearer tok-alice\n\n")) // bare \n line endings
	f.Add([]byte("GET / HTTP/1.1\r\nauthorization: Bearer tok-alice\r\nAUTHORIZATION: bearer tok-bob\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nAuthorization: Bearer tok-alice\r\n\r\nAuthorization: Bearer tok-bob\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nAuthorizaȒion: Bearer tok-alice\r\nAuthorization:\tBearer\ttok-bob\r\n\r\n"))

	tab, err := NewTable(map[string]string{
		"alice": "tok-alice",
		"bob":   "tok-bob",
	})
	if err != nil {
		f.Fatalf("NewTable: %v", err)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		token, aerr := BearerToken(raw)
		ref, rerr := splitBearerToken(raw)
		if !bytes.Equal(token, ref) || (token == nil) != (ref == nil) || (aerr == nil) != (rerr == nil) ||
			(aerr != nil && aerr.Reason != rerr.Reason) {
			t.Fatalf("BearerToken(%q) = %q, %v; the Split form says %q, %v", raw, token, aerr, ref, rerr)
		}
		if aerr != nil {
			if token != nil {
				t.Fatalf("auth error %v but token %q returned", aerr, token)
			}
			if aerr.Reason == "" {
				t.Fatal("auth error with empty reason")
			}
			return
		}
		if len(token) == 0 || len(token) > MaxTokenLen {
			t.Fatalf("accepted token with invalid length %d", len(token))
		}
		tenant, ok := tab.Lookup(token)
		if !ok {
			return // unknown token: server side would 401 uniformly
		}
		// Identity non-leak: a successful lookup must be exactly the
		// presented credential's owner.
		want := map[string]string{"alice": "tok-alice", "bob": "tok-bob"}
		if want[tenant] != string(token) {
			t.Fatalf("token %q resolved to tenant %q", token, tenant)
		}
		// And the credential must have arrived in a real header line,
		// not the request line.
		if !bytes.Contains(raw, []byte(token)) {
			t.Fatalf("resolved token %q absent from input", token)
		}
	})
}

// splitBearerToken is BearerToken as it was written with bytes.Split,
// kept verbatim as the reference the Cut loop must agree with.
func splitBearerToken(raw []byte) ([]byte, *AuthError) {
	head := raw
	if i := bytes.Index(head, []byte("\r\n\r\n")); i >= 0 {
		head = head[:i]
	}
	lines := bytes.Split(head, []byte("\r\n"))
	var token []byte
	found := false
	for _, line := range lines[1:] { // lines[0] is the request line
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		if !strings.EqualFold(string(bytes.TrimSpace(name)), "authorization") {
			continue
		}
		if found {
			return nil, &AuthError{Reason: "duplicate authorization header"}
		}
		found = true
		scheme, cred, ok := bytes.Cut(bytes.TrimSpace(value), []byte(" "))
		if !ok || !strings.EqualFold(string(scheme), "bearer") {
			return nil, &AuthError{Reason: "authorization scheme is not Bearer"}
		}
		cred = bytes.TrimSpace(cred)
		if len(cred) == 0 {
			return nil, &AuthError{Reason: "empty bearer token"}
		}
		if len(cred) > MaxTokenLen {
			return nil, &AuthError{Reason: "bearer token too long"}
		}
		if bytes.ContainsAny(cred, " \t") {
			return nil, &AuthError{Reason: "malformed bearer token"}
		}
		token = cred
	}
	if !found {
		return nil, &AuthError{Reason: "missing authorization header"}
	}
	return token, nil
}
