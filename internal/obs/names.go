package obs

import "strings"

// Metric taxonomy. Every instrumented package records under these names,
// so operators see one stable schema regardless of which binary wired
// the registry. Families with a {label} dimension are built with
// Labeled, once, at package init of the instrumented layer.
const (
	// Protocol message-flow counters (per node).
	ProtocolSent             = "vk_protocol_sent_total"
	ProtocolRecv             = "vk_protocol_recv_total"
	ProtocolRetransmits      = "vk_protocol_retransmits_total"
	ProtocolTimeouts         = "vk_protocol_timeouts_total"
	ProtocolReplayDrops      = "vk_protocol_replay_drops_total"
	ProtocolGarbage          = "vk_protocol_garbage_total"
	ProtocolStale            = "vk_protocol_stale_total"
	ProtocolAbandonedWindows = "vk_protocol_abandoned_windows_total"
	ProtocolAbandonedRounds  = "vk_protocol_abandoned_rounds_total"
	ProtocolConfirmFailures  = "vk_protocol_confirm_failures_total"
	ProtocolKeysConfirmed    = "vk_protocol_keys_confirmed_total"
	// ProtocolRoundSeconds is the reconciliation-round latency histogram
	// (syndrome sent/received → result resolved).
	ProtocolRoundSeconds = "vk_protocol_round_seconds"

	// Pipeline per-phase families, labeled phase=<PhaseProbe…>. Seconds
	// mirror the paper's Table III phase split; bits are each phase's
	// output size.
	PipelinePhaseSeconds = "vk_pipeline_phase_seconds"
	PipelinePhaseBits    = "vk_pipeline_phase_bits"

	// TransportFaults counts injected fault outcomes, labeled
	// kind=<dropped|duplicated|reordered|corrupted|delayed|delivered>.
	TransportFaults = "vk_transport_faults_total"

	// ExpUnitSeconds is the experiment engine's per-work-unit wall time,
	// labeled exp=<fan-out label>.
	ExpUnitSeconds = "vk_exp_unit_seconds"
	// ExpSeconds is one whole experiment's wall time, labeled exp=<id>.
	ExpSeconds = "vk_exp_seconds"

	// Session-level counters (public vehiclekey API).
	SessionKeys       = "vk_session_keys_total"
	SessionKeysAgreed = "vk_session_keys_agreed_total"

	// Server session lifecycle (internal/server). The gauge tracks
	// concurrently running sessions; the counter is labeled
	// outcome=<ServerOutcomes>; the histogram is the server-observed
	// session wall time (accept → conn closed).
	ServerActiveSessions = "vk_server_active_sessions"
	ServerSessions       = "vk_server_sessions_total"
	ServerSessionSeconds = "vk_server_session_seconds"

	// LoadSessionSeconds is the client-observed session latency recorded
	// by the vkload generator (dial → outcomes returned).
	LoadSessionSeconds = "vk_load_session_seconds"

	// Cache effectiveness counters for the memo layer, labeled
	// cache=<CacheNames>: predictor forwards keyed by window
	// fingerprint (internal/core) and per-vehicle window derivations
	// (internal/server).
	CacheHits   = "vk_cache_hits_total"
	CacheMisses = "vk_cache_misses_total"

	// NNForwardSeconds is the predictor inference latency histogram.
	NNForwardSeconds = "vk_nn_forward_seconds"

	// Shared-medium LoRa MAC counters (internal/lora medium). LoraTx is
	// labeled result=<LoraTxResults>: every transmission attempt resolves
	// to exactly one result, so delivered/(sum) is the medium's frame
	// delivery ratio.
	LoraTx = "vk_lora_tx_total"
	// LoraCADBusy counts channel-activity-detection probes that found the
	// hop channel occupied (each triggers a listen-before-talk backoff).
	LoraCADBusy = "vk_lora_cad_busy_total"
	// LoraDutyWaits counts transmissions parked waiting for duty-cycle
	// airtime credit.
	LoraDutyWaits = "vk_lora_duty_waits_total"
	// LoraAirtimeSeconds is the per-message time-on-air histogram
	// (virtual seconds, all fragments of the message summed).
	LoraAirtimeSeconds = "vk_lora_airtime_seconds"
	// LoraBackoffSeconds is the CAD backoff-draw histogram (virtual
	// seconds).
	LoraBackoffSeconds = "vk_lora_backoff_seconds"
	// LoraVirtualSeconds is the medium's virtual clock, exported as a
	// gauge so dashboards can relate counters to simulated time.
	LoraVirtualSeconds = "vk_lora_virtual_seconds"

	// Platoon group-key schedule families (internal/group). The
	// establishment counter is labeled result=<GroupResults>; the envelope
	// counter is labeled result=<GroupResults> too (acked vs failed
	// fan-out deliveries map onto ok vs failed).
	GroupEstablishments = "vk_group_establishments_total"
	GroupEnvelopes      = "vk_group_envelopes_total"
	// GroupRekeys counts completed rekey derivations (one per epoch).
	GroupRekeys = "vk_group_rekeys_total"
	// GroupLeaves counts member departures the hub processed.
	GroupLeaves = "vk_group_leaves_total"
	// GroupStaleDrops counts stale or replayed epoch envelopes members
	// rejected under the monotone-epoch rule.
	GroupStaleDrops = "vk_group_stale_drops_total"
	// GroupKeysAccepted counts group-key epochs members accepted.
	GroupKeysAccepted = "vk_group_keys_accepted_total"
	// GroupEpoch and GroupMembers gauge the hub's current key epoch and
	// live membership.
	GroupEpoch   = "vk_group_epoch"
	GroupMembers = "vk_group_members"
	// GroupEstablishSeconds is the per-member pairwise establishment wall
	// time (join frame → hub membership); GroupFanoutSeconds the
	// per-member envelope delivery latency (first send → ack);
	// GroupRekeySeconds one whole rekey wave (derive → all acks resolved).
	GroupEstablishSeconds = "vk_group_establish_seconds"
	GroupFanoutSeconds    = "vk_group_fanout_seconds"
	GroupRekeySeconds     = "vk_group_rekey_seconds"
)

// Group result labels (establishments and envelope deliveries).
const (
	GroupOK     = "ok"
	GroupFailed = "failed"
)

// GroupResults lists the group result labels.
var GroupResults = []string{GroupOK, GroupFailed}

// LoRa medium transmission results.
const (
	// LoraDelivered: the frame reached its peer intact.
	LoraDelivered = "delivered"
	// LoraCollided: a co-channel overlap destroyed the frame (no capture).
	LoraCollided = "collided"
	// LoraHalfDuplex: the receiver was transmitting while the frame was
	// on the air, so its radio never heard it.
	LoraHalfDuplex = "halfduplex"
	// LoraCADDropped: CAD found the channel busy on every attempt and the
	// sender gave the frame up (the ARQ layer recovers).
	LoraCADDropped = "cad_dropped"
	// LoraClosedDrop: the peer's link closed while the frame was on the
	// air.
	LoraClosedDrop = "closed"
)

// LoraTxResults lists the transmission-result labels.
var LoraTxResults = []string{LoraDelivered, LoraCollided, LoraHalfDuplex, LoraCADDropped, LoraClosedDrop}

// CacheNames lists the memoization caches that report hit/miss counters.
var CacheNames = []string{"predictor", "windows"}

// Server session outcome labels.
const (
	// OutcomeEstablished: the session confirmed at least one key.
	OutcomeEstablished = "established"
	// OutcomeDegraded: the protocol ran to completion but confirmed
	// nothing (abandoned rounds, wire-infeasible scheme, early peer exit).
	OutcomeDegraded = "degraded"
	// OutcomeRejected: no valid handshake arrived (dead or hostile peer),
	// or the server was draining.
	OutcomeRejected = "rejected"
	// OutcomeError: the session died on a local error.
	OutcomeError = "error"
)

// ServerOutcomes lists the session outcome labels.
var ServerOutcomes = []string{OutcomeEstablished, OutcomeDegraded, OutcomeRejected, OutcomeError}

// Pipeline phase labels (the paper's Table III split).
const (
	PhaseProbe     = "probe"
	PhasePredict   = "predict"
	PhaseQuantize  = "quantize"
	PhaseReconcile = "reconcile"
	PhaseAmplify   = "amplify"
)

// Phases lists the pipeline phases in execution order.
var Phases = []string{PhaseProbe, PhasePredict, PhaseQuantize, PhaseReconcile, PhaseAmplify}

// Transport fault kinds.
var FaultKinds = []string{"dropped", "duplicated", "reordered", "corrupted", "delayed", "delivered"}

// Labeled bakes one Prometheus-style label into a family name:
// Labeled("f", "phase", "probe") == `f{phase="probe"}`. Build these once
// (package-level vars), not per record call.
func Labeled(family, key, value string) string {
	return family + `{` + key + `="` + value + `"}`
}

// Family strips a baked-in label block, returning the bare family name.
func Family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labels returns the inside of a name's label block ("" when unlabeled).
func labels(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return ""
	}
	return name[i+1 : len(name)-1]
}

// DeclareStandard pre-registers the full Vehicle-Key metric schema on a
// registry, so an exported snapshot always contains every family — the
// per-phase pipeline histograms, the protocol ARQ counters, the
// transport fault counters — even for runs that never touched some of
// them. Binaries call this right after NewRegistry.
func DeclareStandard(r *Registry) {
	r.DeclareCounter(ProtocolSent, "envelopes transmitted, including retransmits")
	r.DeclareCounter(ProtocolRecv, "well-formed envelopes accepted")
	r.DeclareCounter(ProtocolRetransmits, "cached messages retransmitted after a timeout or stale request")
	r.DeclareCounter(ProtocolTimeouts, "receive deadlines that expired")
	r.DeclareCounter(ProtocolReplayDrops, "envelopes rejected by the sliding replay window")
	r.DeclareCounter(ProtocolGarbage, "undecodable, wrong-session, or otherwise unusable deliveries")
	r.DeclareCounter(ProtocolStale, "well-formed duplicates of already-handled messages")
	r.DeclareCounter(ProtocolAbandonedWindows, "probing windows given up after retry exhaustion")
	r.DeclareCounter(ProtocolAbandonedRounds, "reconciliation rounds given up or never seen")
	r.DeclareCounter(ProtocolConfirmFailures, "rounds whose key confirmation was rejected")
	r.DeclareCounter(ProtocolKeysConfirmed, "128-bit session keys confirmed by both sides")
	r.DeclareHistogram(ProtocolRoundSeconds, "reconciliation round latency in seconds", DefBuckets)
	for _, ph := range Phases {
		r.DeclareHistogram(Labeled(PipelinePhaseSeconds, "phase", ph),
			"pipeline phase duration in seconds (Table III split)", DefBuckets)
		r.DeclareHistogram(Labeled(PipelinePhaseBits, "phase", ph),
			"pipeline phase output size in bits", BitBuckets)
	}
	for _, kind := range FaultKinds {
		r.DeclareCounter(Labeled(TransportFaults, "kind", kind),
			"fault-injection outcomes on the egress path")
	}
	r.DeclareCounter(SessionKeys, "keys produced by Session.GenerateKeys")
	r.DeclareCounter(SessionKeysAgreed, "keys on which both sides agreed exactly")
	r.DeclareHistogram(ExpUnitSeconds, "experiment-engine per-unit wall time in seconds", DefBuckets)
	r.DeclareHistogram(ExpSeconds, "whole-experiment wall time in seconds", DefBuckets)
	r.DeclareGauge(ServerActiveSessions, "sessions currently being served")
	for _, outcome := range ServerOutcomes {
		r.DeclareCounter(Labeled(ServerSessions, "outcome", outcome),
			"sessions resolved, by outcome")
	}
	r.DeclareHistogram(ServerSessionSeconds, "server-observed session wall time in seconds", SessionBuckets)
	r.DeclareHistogram(LoadSessionSeconds, "client-observed session latency in seconds", SessionBuckets)
	for _, cache := range CacheNames {
		r.DeclareCounter(Labeled(CacheHits, "cache", cache), "memoization cache hits")
		r.DeclareCounter(Labeled(CacheMisses, "cache", cache), "memoization cache misses")
	}
	r.DeclareHistogram(NNForwardSeconds, "predictor inference latency in seconds", DefBuckets)
	for _, result := range LoraTxResults {
		r.DeclareCounter(Labeled(LoraTx, "result", result),
			"shared-medium LoRa transmission attempts, by result")
	}
	r.DeclareCounter(LoraCADBusy, "CAD probes that found the hop channel busy")
	r.DeclareCounter(LoraDutyWaits, "transmissions parked for duty-cycle airtime credit")
	r.DeclareHistogram(LoraAirtimeSeconds, "per-message time-on-air in virtual seconds", DefBuckets)
	r.DeclareHistogram(LoraBackoffSeconds, "CAD listen-before-talk backoff in virtual seconds", DefBuckets)
	r.DeclareGauge(LoraVirtualSeconds, "the LoRa medium's virtual clock in seconds")
	for _, result := range GroupResults {
		r.DeclareCounter(Labeled(GroupEstablishments, "result", result),
			"platoon pairwise establishments, by result")
		r.DeclareCounter(Labeled(GroupEnvelopes, "result", result),
			"group-key envelope deliveries, by result")
	}
	r.DeclareCounter(GroupRekeys, "group rekey derivations (one per epoch)")
	r.DeclareCounter(GroupLeaves, "member departures processed by the hub")
	r.DeclareCounter(GroupStaleDrops, "stale or replayed epoch envelopes rejected by members")
	r.DeclareCounter(GroupKeysAccepted, "group-key epochs accepted by members")
	r.DeclareGauge(GroupEpoch, "the hub's current group-key epoch")
	r.DeclareGauge(GroupMembers, "members currently holding hub membership")
	r.DeclareHistogram(GroupEstablishSeconds, "per-member pairwise establishment wall time in seconds", SessionBuckets)
	r.DeclareHistogram(GroupFanoutSeconds, "per-member envelope delivery latency in seconds", DefBuckets)
	r.DeclareHistogram(GroupRekeySeconds, "whole rekey-wave wall time in seconds", DefBuckets)
}
