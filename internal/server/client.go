package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Vehicle identifies one simulated vehicle driving a session against a
// key server.
type Vehicle struct {
	// ID selects the vehicle's channel realization; both endpoints derive
	// the session windows from it (see SessionWindows).
	ID uint64
	// Windows is how many probing windows the session runs.
	Windows int
	// Session is the protocol session identifier; empty derives a
	// canonical one from ID.
	Session string
	// HelloCopies is the hello redundancy (≥ 1). Keep 1 on TCP; use 3-4
	// over lossy UDP so a dropped hello does not strand the session.
	HelloCopies int
}

// SessionName is the canonical session identifier for a vehicle ID.
func SessionName(id uint64) string { return fmt.Sprintf("vk/vehicle/%d", id) }

// RunVehicle drives one vehicle's side of a key-establishment session
// over conn: it derives the vehicle's measurement windows, announces the
// hello, and runs the protocol's Bob role with the given scheme. It is
// the client half of the serving layer — vkload and the loopback tests
// both build on it. The caller owns conn and closes it afterwards.
//
// sys must be (a clone of) the same trained scheme instance the server
// shards, and sc/cfg/seed must match the server's configuration — that
// shared derivation stands in for the two radios probing one physical
// channel, exactly as cmd/vkproto does across processes.
func RunVehicle(conn transport.Conn, sys pipeline.Scheme, sc trace.Scenario, cfg core.Config, seed int64, v Vehicle, opts ...protocol.Option) ([]protocol.KeyOutcome, error) {
	if v.Windows <= 0 {
		v.Windows = 8
	}
	// Announce before deriving: the hello needs nothing from the window
	// derivation, and the derivation is real simulation work. Sending
	// first keeps the server's handshake deadline from burning down while
	// this side computes, and lets both endpoints derive in parallel.
	if err := sendHello(conn, &v); err != nil {
		return nil, err
	}
	_, bobWin, err := SessionWindowsFor(sc, cfg, seed, v.ID, v.Windows, trace.Bob)
	if err != nil {
		return nil, err
	}
	node := protocol.NewNode(sys, conn, v.Session, opts...)
	return node.RunBob(bobWin)
}

// RunVehicleWindows is RunVehicle for a caller that already holds the
// vehicle's Bob-side windows (a reconnecting client, or a load generator
// reusing one derivation across sessions — the client-side mirror of the
// server's window cache). bobWin must come from SessionWindows or
// SessionWindowsFor with the scenario/config/seed the server was
// configured with; v.Windows is overridden to len(bobWin) so the
// announcement always matches.
func RunVehicleWindows(conn transport.Conn, sys pipeline.Scheme, bobWin [][]float64, v Vehicle, opts ...protocol.Option) ([]protocol.KeyOutcome, error) {
	if len(bobWin) == 0 {
		return nil, fmt.Errorf("server: vehicle %d: no windows", v.ID)
	}
	v.Windows = len(bobWin)
	if err := sendHello(conn, &v); err != nil {
		return nil, err
	}
	node := protocol.NewNode(sys, conn, v.Session, opts...)
	return node.RunBob(bobWin)
}

// sendHello completes v's defaults and announces the session.
func sendHello(conn transport.Conn, v *Vehicle) error {
	if v.Session == "" {
		v.Session = SessionName(v.ID)
	}
	if v.HelloCopies < 1 {
		v.HelloCopies = 1
	}
	hello := encodeHello(Hello{Vehicle: v.ID, Windows: v.Windows, Session: v.Session})
	for i := 0; i < v.HelloCopies; i++ {
		if err := conn.Send(hello); err != nil {
			return fmt.Errorf("server: hello: %w", err)
		}
	}
	return nil
}
