package secure

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMACRoundTrip(t *testing.T) {
	key := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	msg := []byte("probe 42")
	tag := MAC(key, msg)
	if len(tag) != MACSize {
		t.Fatalf("tag length %d, want %d", len(tag), MACSize)
	}
	if !VerifyMAC(key, msg, tag) {
		t.Fatal("valid MAC rejected")
	}
	if VerifyMAC(key, []byte("probe 43"), tag) {
		t.Fatal("modified message accepted")
	}
	key[0] ^= 1
	if VerifyMAC(key, msg, tag) {
		t.Fatal("wrong key accepted")
	}
}

// TestMACAndImageKnownAnswer pins MAC and BlockImage to HMAC-SHA256
// computed here over the packed bits, for keys shorter and longer than
// the hash's block (the long one is hashed down inside HMAC), and checks
// that neither touches its input bits.
func TestMACAndImageKnownAnswer(t *testing.T) {
	src := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 13, 128, 600} {
		bits := make([]byte, n)
		packed := make([]byte, (n+7)/8)
		for i := range bits {
			bits[i] = byte(src.Intn(2))
			packed[i/8] |= bits[i] << uint(7-i%8)
		}
		orig := append([]byte(nil), bits...)
		msg, salt := []byte("confirm"), []byte("salt")

		h := hmac.New(sha256.New, packed)
		h.Write(msg)
		if got, want := MAC(bits, msg), h.Sum(nil)[:MACSize]; !bytes.Equal(got, want) {
			t.Fatalf("%d bits: MAC %x, want %x", n, got, want)
		}
		h = hmac.New(sha256.New, salt)
		h.Write(packed)
		sum := h.Sum(nil)
		img := BlockImage(bits, salt)
		for i := range img {
			if img[i] != sum[i/8]>>uint(7-i%8)&1 {
				t.Fatalf("%d bits: image bit %d differs from the HMAC expansion", n, i)
			}
		}
		if len(img) != 8*len(sum) || !bytes.Equal(bits, orig) {
			t.Fatalf("%d bits: image length %d or input bits changed", n, len(img))
		}
	}
}

func TestReplayGuard(t *testing.T) {
	g := NewReplayGuard()
	if err := g.Check("s", 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Check("s", 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Check("s", 2); err == nil {
		t.Fatal("replay accepted")
	}
	if err := g.Check("s", 1); err == nil {
		t.Fatal("stale nonce accepted")
	}
	if err := g.Check("other", 1); err != nil {
		t.Fatal("independent session rejected")
	}
}

func TestChannelSealOpen(t *testing.T) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
	}
	a, err := NewChannel(key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewChannel(key)
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte) bool {
		ct := a.Seal(msg)
		pt, err := b.Open(ct)
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelRejectsReplayAndTamper(t *testing.T) {
	key := make([]byte, 16)
	a, _ := NewChannel(key)
	b, _ := NewChannel(key)
	ct := a.Seal([]byte("hello"))
	if _, err := b.Open(ct); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(ct); err == nil {
		t.Fatal("replay accepted")
	}
	ct2 := a.Seal([]byte("world"))
	ct2[len(ct2)-1] ^= 1
	if _, err := b.Open(ct2); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
}

func TestChannelWrongKey(t *testing.T) {
	k1 := make([]byte, 16)
	k2 := make([]byte, 16)
	k2[0] = 1
	a, _ := NewChannel(k1)
	b, _ := NewChannel(k2)
	if _, err := b.Open(a.Seal([]byte("x"))); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestChannelKeyLength(t *testing.T) {
	if _, err := NewChannel(make([]byte, 15)); err == nil {
		t.Fatal("15-byte key accepted")
	}
}

func TestWindowGuardInOrder(t *testing.T) {
	g := NewWindowGuard(64)
	for n := uint64(1); n <= 100; n++ {
		if err := g.Check("s", n); err != nil {
			t.Fatalf("in-order nonce %d rejected: %v", n, err)
		}
	}
}

func TestWindowGuardOutOfOrderWithinWindow(t *testing.T) {
	g := NewWindowGuard(64)
	for _, n := range []uint64{5, 3, 4, 1, 2, 10, 7, 9, 6, 8} {
		if err := g.Check("s", n); err != nil {
			t.Fatalf("fresh out-of-order nonce %d rejected: %v", n, err)
		}
	}
}

func TestWindowGuardRejectsDuplicates(t *testing.T) {
	g := NewWindowGuard(64)
	for _, n := range []uint64{1, 5, 3} {
		if err := g.Check("s", n); err != nil {
			t.Fatalf("nonce %d: %v", n, err)
		}
	}
	for _, n := range []uint64{1, 5, 3} {
		if err := g.Check("s", n); err == nil {
			t.Fatalf("duplicate nonce %d accepted", n)
		}
	}
	// Fresh nonces still pass after the rejections.
	if err := g.Check("s", 6); err != nil {
		t.Fatalf("nonce 6 after duplicates: %v", err)
	}
}

func TestWindowGuardRejectsBelowWindow(t *testing.T) {
	g := NewWindowGuard(8)
	if err := g.Check("s", 100); err != nil {
		t.Fatal(err)
	}
	if err := g.Check("s", 92); err == nil {
		t.Fatal("nonce 8 below max accepted with window 8")
	}
	if err := g.Check("s", 93); err != nil {
		t.Fatalf("nonce 7 below max rejected with window 8: %v", err)
	}
}

func TestWindowGuardSessionsIndependent(t *testing.T) {
	g := NewWindowGuard(64)
	if err := g.Check("a", 9); err != nil {
		t.Fatal(err)
	}
	if err := g.Check("b", 9); err != nil {
		t.Fatalf("session b blocked by session a: %v", err)
	}
}

func TestWindowGuardLargeJump(t *testing.T) {
	g := NewWindowGuard(64)
	if err := g.Check("s", 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Check("s", 1000); err != nil {
		t.Fatal(err)
	}
	if err := g.Check("s", 1); err == nil {
		t.Fatal("ancient nonce accepted after jump")
	}
	if err := g.Check("s", 999); err != nil {
		t.Fatalf("nonce just inside window rejected: %v", err)
	}
}
