package transport

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestPairRoundTrip(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	msg := []byte("hello")
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	// The other direction too.
	if err := b.Send([]byte("back")); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Recv(); err != nil || string(got) != "back" {
		t.Fatalf("got %q err %v", got, err)
	}
}

func TestPairCopiesPayload(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	msg := []byte("mutate-me")
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	msg[0] = 'X'
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "mutate-me" {
		t.Fatalf("payload aliased sender buffer: %q", got)
	}
}

func TestPairClose(t *testing.T) {
	a, b := Pair()
	a.Close()
	if err := b.Send([]byte("x")); err == nil {
		t.Fatal("send after close must fail deterministically")
	}
	if _, err := b.Recv(); err == nil {
		t.Fatal("recv on closed pair should fail")
	}
}

// TestPairConcurrentClose closes both ends of many pairs from two
// goroutines at once, as a protocol soak does when either side's
// finish tears the session down. Close is idempotent across the link,
// so no interleaving may close the shared channel twice.
func TestPairConcurrentClose(t *testing.T) {
	for i := 0; i < 2000; i++ {
		a, b := Pair()
		var wg sync.WaitGroup
		wg.Add(2)
		closeBoth := func() { defer wg.Done(); a.Close(); b.Close() }
		go closeBoth()
		go closeBoth()
		wg.Wait()
		if err := a.Send([]byte("x")); !errors.Is(err, ErrClosed) {
			t.Fatalf("Send after Close: %v, want ErrClosed", err)
		}
	}
}

func TestPairCloseDrainsQueued(t *testing.T) {
	// Regression: messages queued before Close must all be delivered, not
	// just the first one, before Recv reports closure.
	a, b := Pair()
	for i := 0; i < 3; i++ {
		if err := a.Send([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	for i := 0; i < 3; i++ {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("message %d after close: %v", i, err)
		}
		if want := byte('a' + i); len(got) != 1 || got[0] != want {
			t.Fatalf("message %d: got %q want %q", i, got, want)
		}
	}
	if _, err := b.Recv(); err == nil {
		t.Fatal("drained pair must report closure")
	}
	// RecvTimeout must honor the same drain-then-close contract.
	a2, b2 := Pair()
	a2.Send([]byte("last"))
	a2.Close()
	if got, err := b2.RecvTimeout(time.Second); err != nil || string(got) != "last" {
		t.Fatalf("RecvTimeout drain: got %q err %v", got, err)
	}
	if _, err := b2.RecvTimeout(time.Second); err == nil {
		t.Fatal("drained pair must report closure via RecvTimeout")
	}
}

func TestPairRecvTimeout(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	if _, err := b.RecvTimeout(5 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("empty pair: want ErrTimeout, got %v", err)
	}
	if err := a.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got, err := b.RecvTimeout(time.Second); err != nil || string(got) != "x" {
		t.Fatalf("got %q err %v", got, err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	server, err := DialUDP("127.0.0.1:0", "127.0.0.1:9")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := DialUDP("127.0.0.1:0", server.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	peer, err := ResolvePeer(client.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	server.SetPeer(peer)
	server.SetTimeout(2 * time.Second)
	client.SetTimeout(2 * time.Second)

	if err := client.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" {
		t.Fatalf("got %q", got)
	}
	if err := server.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if got, err := client.Recv(); err != nil || string(got) != "pong" {
		t.Fatalf("got %q err %v", got, err)
	}
}

func TestUDPTimeout(t *testing.T) {
	c, err := DialUDP("127.0.0.1:0", "127.0.0.1:9")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(50 * time.Millisecond)
	if _, err := c.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if _, err := c.RecvTimeout(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestUDPClosedMapsToErrClosed(t *testing.T) {
	c, err := DialUDP("127.0.0.1:0", "127.0.0.1:9")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.RecvTimeout(10 * time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := c.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send: want ErrClosed, got %v", err)
	}
}
