package gateway

import (
	"bufio"
	"bytes"
	"crypto/subtle"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// This file implements tenant identity: a static token→tenant table
// loaded from a config file, looked up with a constant-time scan, plus
// the host-side bearer-token extraction for raw HTTP request heads.
// Everything here runs on the trusted side before a request touches a
// domain, so it must be total over hostile bytes (FuzzGatewayAuth pins
// no-panic and no-identity-leak) and free of wall-clock reads.

// MaxTokenLen bounds accepted credential lengths; longer tokens are
// rejected before comparison so a hostile header cannot force unbounded
// work in the constant-time scan.
const MaxTokenLen = 256

// Table is the static token→tenant map. Entries are fixed at parse
// time and scanned in full on every lookup (constant-time compare per
// entry, no early exit on match), so lookup timing does not depend on
// which tenant — if any — the token belongs to.
type Table struct {
	tenants []string
	tokens  [][]byte
}

// ParseTable reads a tenant table: one "<tenant> <token>" pair per
// line, '#' comments and blank lines ignored. Tenant names and tokens
// must be unique; names are restricted to [a-z0-9-] so they embed
// cleanly in metrics and trace keys. Entries are sorted by tenant name,
// making Tenants deterministic regardless of file order.
func ParseTable(r io.Reader) (*Table, error) {
	type entry struct {
		tenant string
		token  string
	}
	var entries []entry
	seenTenant := make(map[string]bool)
	seenToken := make(map[string]bool)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("gateway: tenants file line %d: want \"<tenant> <token>\", got %d fields", line, len(fields))
		}
		tenant, token := fields[0], fields[1]
		if !validTenantName(tenant) {
			return nil, fmt.Errorf("gateway: tenants file line %d: invalid tenant name %q (want [a-z0-9-]+)", line, tenant)
		}
		if len(token) > MaxTokenLen {
			return nil, fmt.Errorf("gateway: tenants file line %d: token exceeds %d bytes", line, MaxTokenLen)
		}
		if seenTenant[tenant] {
			return nil, fmt.Errorf("gateway: tenants file line %d: duplicate tenant %q", line, tenant)
		}
		if seenToken[token] {
			return nil, fmt.Errorf("gateway: tenants file line %d: duplicate token", line)
		}
		seenTenant[tenant] = true
		seenToken[token] = true
		entries = append(entries, entry{tenant: tenant, token: token})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gateway: tenants file: %w", err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("gateway: tenants file holds no entries")
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].tenant < entries[j].tenant })
	t := &Table{
		tenants: make([]string, len(entries)),
		tokens:  make([][]byte, len(entries)),
	}
	for i, e := range entries {
		t.tenants[i] = e.tenant
		t.tokens[i] = []byte(e.token)
	}
	return t, nil
}

// NewTable builds a table from an in-memory tenant→token map (tests and
// the campaign engine). Same validation as ParseTable.
func NewTable(tokens map[string]string) (*Table, error) {
	var sb strings.Builder
	// Deterministic render order: host map iteration is randomized.
	names := make([]string, 0, len(tokens))
	for name := range tokens {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "%s %s\n", name, tokens[name])
	}
	return ParseTable(strings.NewReader(sb.String()))
}

// validTenantName reports whether s is a non-empty [a-z0-9-] string.
func validTenantName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

// Tenants returns the configured tenant names in sorted order.
func (t *Table) Tenants() []string {
	out := make([]string, len(t.tenants))
	copy(out, t.tenants)
	return out
}

// Lookup resolves a presented token to its tenant. The scan visits
// every entry and compares each with crypto/subtle regardless of
// earlier matches, so timing reveals only the table size and the
// presented token's length — never which entry (if any) matched.
func (t *Table) Lookup(token []byte) (string, bool) {
	if len(token) == 0 || len(token) > MaxTokenLen {
		return "", false
	}
	match := -1
	for i, tk := range t.tokens {
		// subtle.ConstantTimeCompare is length-gated internally; the
		// explicit length check keeps the branch shape uniform per entry.
		if len(tk) == len(token) && subtle.ConstantTimeCompare(tk, token) == 1 {
			match = i
		}
	}
	if match < 0 {
		return "", false
	}
	return t.tenants[match], true
}

// BearerToken extracts the bearer credential from a raw HTTP/1.x
// request head: exactly one Authorization header (case-insensitive
// name and scheme) of the form "Bearer <token>". Every failure mode —
// missing, malformed, duplicated, oversized — returns a typed
// *AuthError and never panics, whatever the input bytes. The token is a
// view into raw; the head is walked in place.
func BearerToken(raw []byte) ([]byte, *AuthError) {
	head := raw
	if i := bytes.Index(head, []byte("\r\n\r\n")); i >= 0 {
		head = head[:i]
	}
	_, rest, more := bytes.Cut(head, []byte("\r\n")) // skip the request line
	var token []byte
	found := false
	for more {
		var line []byte
		line, rest, more = bytes.Cut(rest, []byte("\r\n"))
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		if !bytes.EqualFold(bytes.TrimSpace(name), []byte("authorization")) {
			continue
		}
		if found {
			return nil, &AuthError{Reason: "duplicate authorization header"}
		}
		found = true
		scheme, cred, ok := bytes.Cut(bytes.TrimSpace(value), []byte(" "))
		if !ok || !bytes.EqualFold(scheme, []byte("bearer")) {
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

// LoadFile builds a gateway from cfg and the tenant table file at path
// ("<tenant> <token>" per line, see ParseTable).
func LoadFile(path string, cfg Config) (*Gateway, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if cfg.Table, err = ParseTable(bytes.NewReader(data)); err != nil {
		return nil, err
	}
	return New(cfg)
}
