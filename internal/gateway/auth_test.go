package gateway_test

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/gateway"
)

// oracleTag is crypto/hmac's HMAC-SHA256 in lower-case hex: what
// HMACAuth.Tag spells out by hand and is held to.
func oracleTag(secret []byte, id string) string {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(id))
	return hex.EncodeToString(mac.Sum(nil))
}

// TestTagMatchesCryptoHMAC walks the secret and ID lengths around
// SHA-256's 64-byte block and 55/56-byte padding boundaries, and checks
// that Authenticate takes the tag and nothing near it.
func TestTagMatchesCryptoHMAC(t *testing.T) {
	for _, sl := range []int{1, 63, 64, 65, 200} {
		secret := bytes.Repeat([]byte{0xa7}, sl)
		secret[sl-1] = byte(sl)
		h := gateway.HMACAuth{Secret: secret}
		for _, il := range []int{1, 55, 56, 63, 64, 65, 200, 1000} {
			id := strings.Repeat("t", il-1) + "!"
			want := oracleTag(secret, id)
			if got := h.Tag(id); got != want {
				t.Fatalf("secret %d B, id %d B: Tag = %s, crypto/hmac = %s", sl, il, got, want)
			}
			if got, err := h.Authenticate(gateway.Credential{TenantID: id, MAC: want}); err != nil || got != id {
				t.Fatalf("secret %d B, id %d B: own tag refused: %q, %v", sl, il, got, err)
			}
			flipped := []byte(want)
			flipped[17] ^= 0x01
			for name, mac := range map[string]string{
				"upper-case": strings.ToUpper(want),
				"truncated":  want[:63],
				"over-long":  want + "0",
				"bit flip":   string(flipped),
				"empty":      "",
			} {
				if name == "upper-case" && mac == want {
					continue // an all-digit tag has no upper case
				}
				if _, err := h.Authenticate(gateway.Credential{TenantID: id, MAC: mac}); !errors.Is(err, gateway.ErrUnauthenticated) {
					t.Errorf("secret %d B, id %d B: %s MAC: err = %v, want ErrUnauthenticated", sl, il, name, err)
				}
			}
		}
	}

	h := gateway.HMACAuth{Secret: []byte("s3cret")}
	cred := gateway.Credential{TenantID: "t-00042", MAC: h.Tag("t-00042")}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := h.Authenticate(cred); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Authenticate allocates %v times per call, want 0", n)
	}
}

// TestEmptySecretRefused: a forgotten Secret keys the MAC with the empty
// string, which anyone can compute; Authenticate fails closed, and a
// Chain still gives the next scheme its turn.
func TestEmptySecretRefused(t *testing.T) {
	for _, h := range []gateway.HMACAuth{{}, {Secret: []byte{}}} {
		cred := gateway.Credential{TenantID: "mallory", MAC: oracleTag(nil, "mallory")}
		if h.Tag("mallory") != cred.MAC {
			t.Fatal("Tag under an empty secret is no longer HMAC-SHA256(\"\", id)")
		}
		if id, err := h.Authenticate(cred); !errors.Is(err, gateway.ErrUnauthenticated) {
			t.Errorf("empty secret admitted %q (err %v)", id, err)
		}
		cred.Token = "tok"
		chain := gateway.Chain{h, gateway.StaticTokens{"tok": "alice"}}
		if id, err := chain.Authenticate(cred); err != nil || id != "alice" {
			t.Errorf("chain behind an empty-secret HMACAuth: %q, %v; want alice", id, err)
		}
	}
}

// FuzzHMACAuthenticate: Tag is crypto/hmac's tag for any secret and ID,
// and Authenticate admits exactly a non-empty ID under a non-empty
// secret presenting that tag in lower-case hex.
func FuzzHMACAuthenticate(f *testing.F) {
	f.Add([]byte("s3cret"), "alice", oracleTag([]byte("s3cret"), "alice"))
	f.Add([]byte("s3cret"), "alice", strings.ToUpper(oracleTag([]byte("s3cret"), "alice")))
	f.Add([]byte{}, "mallory", oracleTag(nil, "mallory"))
	f.Add(bytes.Repeat([]byte("k"), 65), strings.Repeat("i", 65), "")
	f.Add([]byte("k"), "", oracleTag([]byte("k"), ""))
	f.Fuzz(func(t *testing.T, secret []byte, id, mac string) {
		h := gateway.HMACAuth{Secret: secret}
		want := oracleTag(secret, id)
		if got := h.Tag(id); got != want {
			t.Fatalf("Tag = %s, crypto/hmac = %s", got, want)
		}
		for _, m := range []string{mac, want} {
			got, err := h.Authenticate(gateway.Credential{TenantID: id, MAC: m})
			if len(secret) > 0 && id != "" && m == want {
				if err != nil || got != id {
					t.Fatalf("own tag refused: %q, %v", got, err)
				}
			} else if !errors.Is(err, gateway.ErrUnauthenticated) || got != "" {
				t.Fatalf("secret %d B, id %q, mac %q admitted as %q (err %v)", len(secret), id, m, got, err)
			}
		}
	})
}
