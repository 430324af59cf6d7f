package transport_test

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// listenTCP opens a loopback listener closed with the test.
func listenTCP(tb testing.TB) *transport.TCPListener {
	tb.Helper()
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		tb.Fatalf("listen: %v", err)
	}
	tb.Cleanup(func() { _ = l.Close() })
	return l
}

// dialAccept opens one framed connection through l and returns both ends.
// The dial completes in the kernel's accept queue, so Accept needs no
// second goroutine.
func dialAccept(tb testing.TB, l *transport.TCPListener) (client, server transport.Conn) {
	tb.Helper()
	client, err := transport.DialTCP(l.Addr().String())
	if err != nil {
		tb.Fatalf("dial: %v", err)
	}
	server, err = l.Accept()
	if err != nil {
		tb.Fatalf("accept: %v", err)
	}
	return client, server
}

// udpPair binds two UDP conns on loopback, each aimed at the other.
func udpPair(tb testing.TB) (a, b *transport.UDPConn) {
	tb.Helper()
	b, err := transport.DialUDP("127.0.0.1:0", "127.0.0.1:9")
	if err != nil {
		tb.Fatal(err)
	}
	a, err = transport.DialUDP("127.0.0.1:0", b.LocalAddr().String())
	if err != nil {
		tb.Fatal(err)
	}
	peer, err := transport.ResolvePeer(a.LocalAddr().String())
	if err != nil {
		tb.Fatal(err)
	}
	b.SetPeer(peer)
	tb.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b
}

// roundTrip sends msg from a, echoes it back from b, and checks that the
// echo arrives intact.
func roundTrip(tb testing.TB, a, b transport.Conn, msg []byte) {
	if err := a.Send(msg); err != nil {
		tb.Fatalf("send: %v", err)
	}
	got, err := b.RecvTimeout(5 * time.Second)
	if err != nil {
		tb.Fatalf("recv: %v", err)
	}
	if err := b.Send(got); err != nil {
		tb.Fatalf("echo: %v", err)
	}
	back, err := a.RecvTimeout(5 * time.Second)
	if err != nil {
		tb.Fatalf("recv echo: %v", err)
	}
	if len(back) != len(msg) {
		tb.Fatalf("echo of %d bytes came back as %d", len(msg), len(back))
	}
}

// connLifetime is one TCP connection's whole life: dial, accept, one
// round trip of msg, close.
func connLifetime(tb testing.TB, l *transport.TCPListener, msg []byte) {
	client, server := dialAccept(tb, l)
	roundTrip(tb, client, server, msg)
	_ = client.Close()
	_ = server.Close()
}

// allocBytesPerOp is the heap allocated per call of op, averaged over
// ops calls after one warm-up call.
func allocBytesPerOp(ops int, op func()) uint64 {
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(ops)
}

// TestTCPConnLifetimeAllocs: a connection costs its socket state and its
// frames, not a fixed read scratch per end.
func TestTCPConnLifetimeAllocs(t *testing.T) {
	l := listenTCP(t)
	msg := make([]byte, 100)
	per := allocBytesPerOp(50, func() { connLifetime(t, l, msg) })
	t.Logf("TCP connection lifetime: %d B/op", per)
	if per >= 16<<10 {
		t.Fatalf("a TCP connection's life (dial, accept, 100-byte round trip, close) allocates %d B, want under 16 KiB", per)
	}
}

// TestTCPLargeFrameAllocs: a frame larger than the resting read buffer
// costs its own assembly buffer and payload on each end, and the resting
// buffer is kept aside for the next small frame rather than made again.
func TestTCPLargeFrameAllocs(t *testing.T) {
	client, server := dialAccept(t, listenTCP(t))
	defer func() { _ = client.Close(); _ = server.Close() }()
	msg := make([]byte, 4096)
	small := make([]byte, 100)
	roundTrip(t, client, server, msg)
	allocs := testing.AllocsPerRun(50, func() {
		roundTrip(t, client, server, msg)
		roundTrip(t, client, server, small)
	})
	if allocs > 6 {
		t.Fatalf("a 4 KiB and a 100-byte TCP round trip allocate %.0f times, want at most 6", allocs)
	}
}

// TestUDPRoundTripAllocs: a datagram costs its own bytes, not a fresh
// 64 KiB receive buffer.
func TestUDPRoundTripAllocs(t *testing.T) {
	a, b := udpPair(t)
	msg := make([]byte, 100)
	per := allocBytesPerOp(200, func() { roundTrip(t, a, b, msg) })
	t.Logf("UDP 100-byte round trip: %d B/op", per)
	if per >= 1<<10 {
		t.Fatalf("a 100-byte UDP round trip allocates %d B, want under 1 KiB", per)
	}
}

// TestUDPConcurrentReceivers: receives share one read buffer, so
// concurrent receivers must be serialized on it; every datagram still
// reaches exactly one of them, intact.
func TestUDPConcurrentReceivers(t *testing.T) {
	a, b := udpPair(t)
	const n = 64
	got := make(chan string, n)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				msg, err := b.RecvTimeout(500 * time.Millisecond)
				if err != nil {
					return
				}
				got <- string(msg)
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := a.Send([]byte(fmt.Sprintf("datagram-%03d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	wg.Wait()
	close(got)
	seen := make(map[string]bool)
	for msg := range got {
		if seen[msg] {
			t.Fatalf("%q received twice", msg)
		}
		seen[msg] = true
	}
	for i := 0; i < n; i++ {
		if want := fmt.Sprintf("datagram-%03d", i); !seen[want] {
			t.Fatalf("%q lost or corrupted on loopback (got %d datagrams)", want, len(seen))
		}
	}
}

// readProbe checks, at every socket read, that the TCPConn reading
// through it holds no more buffer than the frame it is assembling
// allows: that frame's total plus the resting read size.
type readProbe struct {
	net.Conn
	tc    *transport.TCPConn
	limit int // cap bound for the frame being received
	peak  int // largest capacity seen at a read
	over  int // capacity seen beyond limit, 0 if none
}

func (p *readProbe) Read(b []byte) (int, error) {
	c := transport.TCPReadCap(p.tc)
	p.peak = max(p.peak, c)
	if c > p.limit && p.over == 0 {
		p.over = c
	}
	return p.Conn.Read(b)
}

// TestTCPChunkedDelivery streams frames of 0, 1, 4096 and MaxFrameBytes
// bytes in 1-, 7- and 4096-byte pieces. Every payload must decode
// intact, the read buffer must stay within the frame being assembled,
// and it must return to its resting size once the large frame is gone.
func TestTCPChunkedDelivery(t *testing.T) {
	sizes := []int{0, 1, 4096, transport.MaxFrameBytes, 1}
	var wire []byte
	payloads := make([][]byte, len(sizes))
	for i, n := range sizes {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(j*31 + i)
		}
		payloads[i] = p
		var err error
		if wire, err = transport.AppendFrame(wire, p); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	for _, piece := range []int{1, 7, 4096} {
		t.Run(fmt.Sprintf("piece=%d", piece), func(t *testing.T) {
			raw, peer := net.Pipe()
			probe := &readProbe{Conn: raw}
			tc := transport.NewTCPConn(probe)
			probe.tc = tc
			defer func() { _ = tc.Close(); _ = peer.Close() }()
			go func() {
				for off := 0; off < len(wire); off += piece {
					if _, err := peer.Write(wire[off:min(off+piece, len(wire))]); err != nil {
						return
					}
				}
			}()
			for i, want := range payloads {
				probe.limit = 8 + len(want) + transport.TCPReadBuf
				got, err := tc.RecvTimeout(time.Minute)
				if err != nil {
					t.Fatalf("frame %d (%d bytes): %v", i, len(want), err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("frame %d (%d bytes) decoded as %d different bytes", i, len(want), len(got))
				}
				if probe.over != 0 {
					t.Fatalf("frame %d (%d bytes): read buffer capacity %d, bound %d", i, len(want), probe.over, probe.limit)
				}
				if c := transport.TCPReadCap(tc); c > transport.TCPReadBuf {
					t.Fatalf("after frame %d (%d bytes): read buffer holds %d bytes of capacity, resting size is %d", i, len(want), c, transport.TCPReadBuf)
				}
			}
			if probe.peak < transport.MaxFrameBytes {
				t.Fatalf("peak read buffer %d never reached the large frame's size", probe.peak)
			}
		})
	}
}

var benchSizes = []struct {
	name string
	n    int
}{{"100B", 100}, {"4KiB", 4 << 10}}

func BenchmarkTCPRoundTrip(b *testing.B) {
	for _, s := range benchSizes {
		b.Run(s.name, func(b *testing.B) {
			client, server := dialAccept(b, listenTCP(b))
			defer func() { _ = client.Close(); _ = server.Close() }()
			msg := make([]byte, s.n)
			b.ReportAllocs()
			b.SetBytes(int64(2 * s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip(b, client, server, msg)
			}
		})
	}
}

func BenchmarkUDPRoundTrip(b *testing.B) {
	for _, s := range benchSizes {
		b.Run(s.name, func(b *testing.B) {
			client, server := udpPair(b)
			msg := make([]byte, s.n)
			b.ReportAllocs()
			b.SetBytes(int64(2 * s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip(b, client, server, msg)
			}
		})
	}
}

// BenchmarkTCPConnLifetime: dial, accept, one 100-byte round trip, close.
func BenchmarkTCPConnLifetime(b *testing.B) {
	l := listenTCP(b)
	msg := make([]byte, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		connLifetime(b, l, msg)
	}
}
