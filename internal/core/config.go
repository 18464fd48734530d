// Package core implements the GulfStream daemon — the paper's primary
// contribution. A Daemon runs on every node of the farm, manages each of
// the node's network adapters through a small protocol state machine
// (beacon discovery → Adapter Membership Group formation via two-phase
// commit → ring/ping failure detection), elects AMG leaders by highest IP,
// merges independently formed groups, survives leader death through the
// committed succession order, and reports membership deltas up the
// hierarchy to GulfStream Central.
package core

import (
	"fmt"
	"time"

	"repro/internal/detect"
)

// Config carries every protocol parameter. The field comments give the
// paper's symbol where one exists.
type Config struct {
	// BeaconPhase is Tb: how long a starting adapter collects BEACONs
	// before forming or deferring (paper §2.1; 5/10/20 s in Figure 5).
	BeaconPhase time.Duration
	// BeaconInterval is the gap between BEACONs during the initial phase.
	BeaconInterval time.Duration
	// LeaderBeaconInterval is the slower post-formation leader beacon.
	LeaderBeaconInterval time.Duration
	// StableWait is Ts: how long a leader lets membership sit quiet
	// before its first report to Central (5 s in the paper's runs).
	StableWait time.Duration

	// DeferTimeout bounds how long a deferring adapter waits to be
	// claimed by the highest-IP adapter before forming a singleton.
	DeferTimeout time.Duration
	// CommitTimeout bounds one two-phase-commit round.
	CommitTimeout time.Duration
	// CommitRetries is how many times a 2PC retries after dropping
	// non-responders.
	CommitRetries int
	// PendingTimeout discards a prepared-but-never-committed view.
	PendingTimeout time.Duration
	// JoinBatchDelay batches join/death changes into one recommit.
	JoinBatchDelay time.Duration

	// Detector selects the failure-detection strategy.
	Detector detect.Kind
	// DetectorParams tunes it (heartbeat interval Th, sensitivity, ...).
	DetectorParams detect.Params
	// Consensus requires suspicions from two neighbors before the leader
	// probes (meaningful with the bidirectional ring; paper §3).
	Consensus bool
	// ConsensusWindow bounds the wait for the second suspicion.
	ConsensusWindow time.Duration

	// ProbeTimeout and ProbeRetries govern the leader's direct
	// verification of a suspect before declaring it dead.
	ProbeTimeout time.Duration
	ProbeRetries int

	// OrphanTimeout: a member that hears nothing from its group this long
	// concludes it has been cut off (e.g. moved to another VLAN), forms a
	// singleton and starts beaconing (paper §3.1).
	OrphanTimeout time.Duration
	// EscalationPatience: a member whose suspicion reports produce no
	// recommit within this window escalates — it probes the leader
	// directly, then the successor, and if neither answers it concludes
	// it has been cut off (the paper's §3.1 moved-adapter narrative).
	EscalationPatience time.Duration

	// ReportRetry is the retransmit interval for unacked reports.
	ReportRetry time.Duration

	// ReportEpoch offsets this incarnation's report sequence numbers.
	// Central dedups reports per reporting daemon by sequence number, so
	// a freshly restarted process counting again from 1 would have its
	// first reports silently swallowed as duplicates of its previous
	// life's. Real daemons (gsd) set this to a value that grows across
	// restarts (boot time in nanoseconds); simulated daemons keep 0 —
	// the simulator reuses the Daemon object across restarts, so their
	// counters are already monotonic.
	ReportEpoch uint64

	// AdminIndex is which adapter is the administrative one (paper: "by
	// convention, adapter 0").
	AdminIndex uint8

	// UnsafeSkipVerify makes a leader act on the first suspicion without
	// the paper's verification probe — the §3 false-report flaw
	// reintroduced on purpose. It exists ONLY as fault injection for the
	// simulation-testing harness (internal/check), which must catch the
	// resulting unverified evictions mid-run; it is never set in
	// production configurations.
	UnsafeSkipVerify bool
}

// DefaultConfig returns the parameters of the prototype deployment.
func DefaultConfig() Config {
	return Config{
		BeaconPhase:          5 * time.Second,
		BeaconInterval:       1 * time.Second,
		LeaderBeaconInterval: 2 * time.Second,
		StableWait:           5 * time.Second,
		DeferTimeout:         6 * time.Second,
		CommitTimeout:        1 * time.Second,
		CommitRetries:        3,
		PendingTimeout:       5 * time.Second,
		JoinBatchDelay:       500 * time.Millisecond,
		Detector:             detect.BiRing,
		DetectorParams:       detect.Defaults(),
		Consensus:            true,
		ConsensusWindow:      2 * time.Second,
		ProbeTimeout:         500 * time.Millisecond,
		ProbeRetries:         2,
		OrphanTimeout:        12 * time.Second,
		EscalationPatience:   6 * time.Second,
		ReportRetry:          1 * time.Second,
		AdminIndex:           0,
	}
}

// Fast compresses every protocol timer for single-host conformance
// farms: gsd's -fast profile, the timers the conformance harness's
// simulated world runs the same suites with, and the UDP end-to-end
// test's.
func (c *Config) Fast() {
	c.BeaconPhase = 2 * time.Second
	c.BeaconInterval = 300 * time.Millisecond
	c.LeaderBeaconInterval = 500 * time.Millisecond
	c.StableWait = 500 * time.Millisecond
	c.DeferTimeout = 3 * time.Second
	c.DetectorParams.Interval = 300 * time.Millisecond
	c.OrphanTimeout = 5 * time.Second
	c.ConsensusWindow = 600 * time.Millisecond
}

// Validate rejects unusable parameter combinations.
func (c Config) Validate() error {
	switch {
	case c.BeaconPhase < 0:
		return fmt.Errorf("core: negative BeaconPhase")
	case c.BeaconInterval <= 0:
		return fmt.Errorf("core: BeaconInterval must be positive")
	case c.LeaderBeaconInterval <= 0:
		return fmt.Errorf("core: LeaderBeaconInterval must be positive")
	case c.CommitTimeout <= 0:
		return fmt.Errorf("core: CommitTimeout must be positive")
	case c.DetectorParams.Interval <= 0:
		return fmt.Errorf("core: detector Interval must be positive")
	case c.DetectorParams.MissThreshold < 1:
		return fmt.Errorf("core: MissThreshold must be >= 1")
	case c.OrphanTimeout <= c.DetectorParams.Interval:
		return fmt.Errorf("core: OrphanTimeout must exceed the heartbeat interval")
	case c.EscalationPatience <= 0:
		return fmt.Errorf("core: EscalationPatience must be positive")
	case c.ProbeRetries < 0 || c.CommitRetries < 0:
		return fmt.Errorf("core: negative retry count")
	}
	if c.Consensus && c.Detector != detect.BiRing {
		return fmt.Errorf("core: Consensus requires the bidirectional ring detector")
	}
	return nil
}
