package protocol

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// goldenEnvelopes pairs one envelope of each type with its wire bytes.
var goldenEnvelopes = []struct {
	env Envelope
	hex string
}{
	{Envelope{Type: MsgKept, Session: "s", Seq: 1, Window: 3, Indices: []int{1, 2, 300}},
		"71d19a93564b45560201730106030204d804000000000000"},
	{Envelope{Type: MsgFinal, Session: "s", Seq: 2, Window: 3, Indices: []int{2, 300}},
		"008936a0564b455604017302060204d804000000000000"},
	{Envelope{Type: MsgSyndrome, Session: "s", Seq: 3, Code: []float64{1, -2.5}, MAC: bytes.Repeat([]byte{7}, 4),
		Round: 1, Windows: []int{0, 3}, Counts: []int{40, 24}},
		"c10f6fe5564b4556060173030000023ff0000000000000c00400000000000004070707070200020006025030"},
	{Envelope{Type: MsgConfirm, Session: "s", Seq: 4, MAC: bytes.Repeat([]byte{9}, 4), Round: 1},
		"c1116c00564b455608017304000000040909090902000000"},
	{Envelope{Type: MsgResult, Session: "s", Seq: 5, Round: 1, Accepted: true},
		"d892a8af564b45560a0173050000000002010000"},
	{Envelope{Type: MsgDone, Session: "s", Seq: 6, Round: 2},
		"2a8b0461564b45560c0173060000000004000000"},
}

// TestWireGolden pins the envelope bytes and the syndrome MAC input.
// Under gob, type ids were handed out in process-global first-use order,
// so envelope lengths and the MAC input depended on what the process had
// encoded before: a vehicle that had sent a hello MACed a different byte
// string than a server that had not, for the same code vector. The
// explicit codec makes both a function of the message alone, and the MAC
// covers exactly the Code bytes on the wire.
func TestWireGolden(t *testing.T) {
	for _, g := range goldenEnvelopes {
		data := encode(g.env)
		if got := hex.EncodeToString(data); got != g.hex {
			t.Errorf("type %d: bytes = %s, want %s", g.env.Type, got, g.hex)
		}
		if _, err := decode(data); err != nil {
			t.Errorf("type %d: golden bytes rejected: %v", g.env.Type, err)
		}
	}
	const wantMAC = "3ff0000000000000c004000000000000"
	if got := hex.EncodeToString(floatsToBytes([]float64{1, -2.5})); got != wantMAC {
		t.Fatalf("floatsToBytes = %s, want %s", got, wantMAC)
	}
}

var codecSink Envelope

// BenchmarkEnvelopeCodec times one encode plus decode per message type,
// at the sizes a default Vehicle-Key session sends.
func BenchmarkEnvelopeCodec(b *testing.B) {
	kept := make([]int, 48)
	for i := range kept {
		kept[i] = 2 * i
	}
	session := "vk/vehicle/1234"
	for _, e := range []Envelope{
		{Type: MsgKept, Session: session, Seq: 1, Window: 5, Indices: kept},
		{Type: MsgFinal, Session: session, Seq: 2, Window: 5, Indices: kept[:40]},
		{Type: MsgSyndrome, Session: session, Seq: 3, Code: make([]float64, 32), MAC: make([]byte, 32),
			Round: 2, Windows: []int{3, 4, 5}, Counts: []int{40, 38, 44}},
		{Type: MsgConfirm, Session: session, Seq: 4, MAC: make([]byte, 32), Round: 2},
		{Type: MsgResult, Session: session, Seq: 5, Round: 2, Accepted: true},
		{Type: MsgDone, Session: session, Seq: 6, Round: 3},
	} {
		b.Run(msgName(e.Type), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := decode(encode(e))
				if err != nil {
					b.Fatal(err)
				}
				codecSink = got
			}
		})
	}
}

func msgName(t MsgType) string {
	return [...]string{MsgKept: "kept", MsgFinal: "final", MsgSyndrome: "syndrome",
		MsgConfirm: "confirm", MsgResult: "result", MsgDone: "done"}[t]
}
