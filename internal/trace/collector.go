package trace

import (
	"repro/internal/channel"
	"repro/internal/lora"
	"repro/internal/rng"
)

// Exchange is one probe/response round:
//
//	t0                t0+Ta        t0+Ta+Td         t0+2Ta+Td
//	|-- Alice probes --|   (Bob's   |-- Bob answers --|
//	|   Bob receives   |  turnaround|  Alice receives |
//
// Bob's rRSSI window therefore *ends* right where Alice's *begins* — the
// adjacency the arRSSI feature exploits.
type Exchange struct {
	Index int
	BobRx lora.Reception // Bob receiving Alice's probe (earlier window)
	AlcRx lora.Reception // Alice receiving Bob's response (later window)

	// Eve's passive observations over her own, spatially distinct
	// channels, time-aligned with the legitimate windows.
	EveEavesdropRx lora.Reception // Eve (parked near Bob) hearing Alice's probe
	EveImitateRx   lora.Reception // Eve (tailing Alice) hearing Bob's response

	// Duration is the wall-clock span of the whole round including the
	// turnaround delays, used for key-generation-rate accounting.
	Duration float64
}

// Collector runs probe exchanges for one scenario against one seeded
// channel realization.
type Collector struct {
	Scenario Scenario
	Model    *channel.Model

	alice *lora.Transceiver
	bob   *lora.Transceiver
	eve   *lora.Transceiver

	radio   lora.Params
	airtime float64
	now     float64
	next    int
}

// NewCollector builds a collector for the scenario; all randomness derives
// from seed.
func NewCollector(sc Scenario, seed int64) *Collector {
	src := rng.New(seed)
	model := channel.NewModel(sc.ChannelConfig(), src.Derive("channel"))
	return &Collector{
		Scenario: sc,
		Model:    model,
		alice:    lora.NewTransceiver(sc.Device, src.Derive("alice")),
		bob:      lora.NewTransceiver(sc.Device, src.Derive("bob")),
		eve:      lora.NewTransceiver(sc.Device, src.Derive("eve")),
		radio:    sc.Radio,
		airtime:  sc.Radio.Airtime(),
	}
}

// Airtime returns the per-packet time on air for the scenario's radio.
func (c *Collector) Airtime() float64 { return c.airtime }

// Alice returns Alice's transceiver (for sample-interval tweaks in tests).
func (c *Collector) Alice() *lora.Transceiver { return c.alice }

// Bob returns Bob's transceiver.
func (c *Collector) Bob() *lora.Transceiver { return c.bob }

// Run advances the timeline by n probe/response rounds and returns them.
func (c *Collector) Run(n int) []Exchange {
	out := make([]Exchange, 0, n)
	receive := func(_ Receivers, tr *lora.Transceiver, gain func(ts, out []float64), start float64, _ bool) lora.Reception {
		return tr.Receive(gain, start, c.airtime)
	}
	rounds(c, n, receive, func(idx int, bobRx, alcRx, eveERx, eveIRx lora.Reception, duration float64) {
		out = append(out, Exchange{
			Index:          idx,
			BobRx:          bobRx,
			AlcRx:          alcRx,
			EveEavesdropRx: eveERx,
			EveImitateRx:   eveIRx,
			Duration:       duration,
		})
	})
	return out
}

// Receivers selects which receivers' features Collector.Features and
// BuildFor synthesize. Eve covers both of her positions.
type Receivers uint8

const (
	Alice Receivers = 1 << iota // Alice receiving Bob's response
	Bob                         // Bob receiving Alice's probe
	Eve                         // both Eves: eavesdropping and imitating
)

// Features holds per-round arRSSI features for the selected receivers,
// equal to what ArRSSI and EveArRSSI extract from the same rounds of
// Run. An unselected receiver's field is nil.
type Features struct {
	Alice, Bob               [][]float64
	EveEavesdrop, EveImitate [][]float64
	Duration                 []float64 // each round's wall-clock span
}

// Features advances the timeline by n rounds exactly as Run does, but
// synthesizes only the register reads the arRSSI edge windows of the
// receivers in rx consume and returns their features. An unselected
// reception is an empty range: it evaluates no channel, and every read's
// noise is owed until its transceiver next draws. Every transceiver and
// channel component owns an independent random stream, and a ranged
// receive leaves its transceiver's next draw exactly where a full one
// does, so the features are bit-identical to Run's and the collector
// continues afterwards as it would after Run, whatever rx selects.
func (c *Collector) Features(n int, cfg ExtractConfig, rx Receivers) Features {
	cfg = cfg.normalize()
	side := func(who Receivers) [][]float64 {
		if rx&who == 0 {
			return nil
		}
		return make([][]float64, 0, n)
	}
	f := Features{
		Alice:        side(Alice),
		Bob:          side(Bob),
		EveEavesdrop: side(Eve),
		EveImitate:   side(Eve),
		Duration:     make([]float64, 0, n),
	}
	var edge []float64 // one reception's edge reads, reused
	receive := func(who Receivers, tr *lora.Transceiver, gain func(ts, out []float64), start float64, tail bool) []float64 {
		if rx&who == 0 {
			tr.ReceiveRange(nil, gain, start, c.airtime, 0, 0)
			return nil
		}
		lo, hi := edgeRange(tr.Reads(c.airtime), cfg.WindowFraction, tail)
		edge = tr.ReceiveRange(edge[:0], gain, start, c.airtime, lo, hi)
		return edgeFeatures(edge, cfg.Blocks, tail)
	}
	keep := func(side *[][]float64, x []float64) {
		if *side != nil { // selected
			*side = append(*side, x)
		}
	}
	rounds(c, n, receive, func(_ int, bob, alc, eveE, eveI []float64, duration float64) {
		keep(&f.Alice, alc)
		keep(&f.Bob, bob)
		keep(&f.EveEavesdrop, eveE)
		keep(&f.EveImitate, eveI)
		f.Duration = append(f.Duration, duration)
	})
	return f
}

// rounds advances the timeline by n probe/response rounds: the one
// definition of a round's order of receptions, airtimes and turnaround
// draws, shared by Run and Features. receive observes one reception by
// the receiver who; tail marks the probe's receptions, the earlier
// window of the pair. emit gets each finished round.
func rounds[R any](c *Collector, n int,
	receive func(who Receivers, tr *lora.Transceiver, gain func(ts, out []float64), start float64, tail bool) R,
	emit func(idx int, bobRx, alcRx, eveERx, eveIRx R, duration float64),
) {
	tx := c.Model.Config().TxPowerDBm
	rssi := func(gainsDB func(ts, out []float64)) func(ts, out []float64) {
		return func(ts, out []float64) {
			gainsDB(ts, out)
			for i, g := range out[:len(ts)] {
				out[i] = tx + g
			}
		}
	}
	legit := rssi(c.Model.GainsDB)
	eveEaves := rssi(c.Model.EveEavesdropGainsDB)
	eveImit := rssi(c.Model.EveImitateGainsDB)

	for i := 0; i < n; i++ {
		start := c.now
		// Alice's probe is on the air; Bob and the eavesdropping Eve hear it.
		bobRx := receive(Bob, c.bob, legit, c.now, true)
		eveERx := receive(Eve, c.eve, eveEaves, c.now, true)
		c.now += c.airtime

		// Bob turns around.
		c.now += c.bob.OpDelay()

		// Bob's response is on the air; Alice and the imitating Eve hear it.
		alcRx := receive(Alice, c.alice, legit, c.now, false)
		eveIRx := receive(Eve, c.eve, eveImit, c.now, false)
		c.now += c.airtime

		// Alice's turnaround before the next probe.
		c.now += c.alice.OpDelay()

		emit(c.next, bobRx, alcRx, eveERx, eveIRx, c.now-start)
		c.next++
	}
}
