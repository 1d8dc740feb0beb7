package gateway

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
)

// ErrUnauthenticated is returned when no authenticator accepts the
// presented credential.
var ErrUnauthenticated = errors.New("gateway: unauthenticated")

// Credential is what a caller presents at the gateway's front door.
// Static-token auth reads Token; HMAC auth reads TenantID + MAC. A
// credential may carry both — the configured authenticator decides
// what it honors.
type Credential struct {
	// Token is a bearer token (static-token authentication).
	Token string
	// TenantID is the claimed identity for keyed-MAC authentication.
	TenantID string
	// MAC is the hex HMAC-SHA256 of TenantID under the shared secret.
	MAC string
}

// Authenticator maps a credential to a tenant identity. It is the
// pluggable seam of the admission stack: deployments swap in whatever
// scheme their tenants use without the gateway core changing — the
// middleware-component pattern of plugin-loadable auth layers.
type Authenticator interface {
	// Authenticate returns the tenant ID the credential proves, or an
	// error wrapping ErrUnauthenticated.
	Authenticate(cred Credential) (string, error)
}

// StaticTokens authenticates by opaque bearer token: a token-to-tenant
// table, the shape of an API-key tier. Comparison is constant-time per
// candidate so a lookup leaks nothing about how close a guess came.
type StaticTokens map[string]string

// Authenticate implements Authenticator.
func (s StaticTokens) Authenticate(cred Credential) (string, error) {
	if cred.Token == "" {
		return "", ErrUnauthenticated
	}
	for tok, tenant := range s {
		if subtle.ConstantTimeCompare([]byte(tok), []byte(cred.Token)) == 1 {
			return tenant, nil
		}
	}
	return "", ErrUnauthenticated
}

// HMACAuth authenticates self-describing credentials: the caller
// claims a tenant ID and proves it with an HMAC-SHA256 tag under a
// secret shared with the gateway — token issuance without a lookup
// table, the stateless half of the token-middleware pattern.
type HMACAuth struct {
	Secret []byte
}

// tag is HMAC-SHA256(Secret, tenantID) in lower-case hex: RFC 2104
// spelled out over sha256.Sum256, because crypto/hmac hands back an
// interface that lives on the heap and a by-value HMACAuth has nowhere
// to keep a keyed hash. It runs once per submission and stays on the stack (an ID
// over 64 bytes spills the inner message by itself). Held to
// crypto/hmac by TestTagMatchesCryptoHMAC and FuzzHMACAuthenticate.
func (h HMACAuth) tag(tenantID string) (out [2 * sha256.Size]byte) {
	var buf [2 * sha256.BlockSize]byte
	pad := buf[:sha256.BlockSize] // the key, zero-padded to a block
	if len(h.Secret) > len(pad) {
		sum := sha256.Sum256(h.Secret)
		copy(pad, sum[:])
	} else {
		copy(pad, h.Secret)
	}
	for i := range pad {
		pad[i] ^= 0x36
	}
	inner := sha256.Sum256(append(pad, tenantID...))
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	outer := sha256.Sum256(append(pad, inner[:]...))
	hex.Encode(out[:], outer[:])
	return out
}

// Tag mints the hex tag for a tenant ID — the issuance side, used by
// clients (and tests) to build credentials.
func (h HMACAuth) Tag(tenantID string) string {
	tag := h.tag(tenantID)
	return string(tag[:])
}

// Authenticate implements Authenticator. It accepts exactly the 64
// lower-case hex characters Tag mints for the claimed ID, and nothing
// when Secret is empty: HMAC-SHA256("", id) is anyone's to compute.
func (h HMACAuth) Authenticate(cred Credential) (string, error) {
	if len(h.Secret) == 0 || cred.TenantID == "" {
		return "", ErrUnauthenticated
	}
	want := h.tag(cred.TenantID)
	if subtle.ConstantTimeCompare([]byte(cred.MAC), want[:]) != 1 {
		return "", ErrUnauthenticated
	}
	return cred.TenantID, nil
}

// Chain tries authenticators in order, accepting the first success —
// how a gateway fronts multiple credential schemes at once. Errors
// other than ErrUnauthenticated stop the chain.
type Chain []Authenticator

// Authenticate implements Authenticator.
func (c Chain) Authenticate(cred Credential) (string, error) {
	for _, a := range c {
		id, err := a.Authenticate(cred)
		if err == nil {
			return id, nil
		}
		if !errors.Is(err, ErrUnauthenticated) {
			return "", err
		}
	}
	return "", ErrUnauthenticated
}
