// Package market implements the CDT environment: the long-term data
// collection job (Definition 1), the three trading parties, the
// per-round workflow of Fig. 2 (select → play game → collect →
// aggregate → settle), and the payment settlement against the ledger.
// The learning/decision logic itself (bandit policy + Stackelberg
// game) lives in internal/core; this package owns the world the
// mechanism acts on.
package market

import (
	"errors"
	"fmt"

	"cmabhs/internal/aggregate"
	"cmabhs/internal/economics"
	"cmabhs/internal/faults"
	"cmabhs/internal/game"
	"cmabhs/internal/ledger"
	"cmabhs/internal/quality"
	"cmabhs/internal/rng"
)

// Job is the consumer's data collection job ⟨L, N, T, Des⟩.
type Job struct {
	L           int     // number of PoIs
	N           int     // number of trading rounds
	T           float64 // duration of one round (caps each τ_i; <= 0 means uncapped)
	Description string  // free-form requirements (Des)
}

// Validate checks the job's structural constraints.
func (j Job) Validate() error {
	if j.L <= 0 {
		return errors.New("market: job needs at least one PoI")
	}
	if j.N <= 0 {
		return errors.New("market: job needs at least one round")
	}
	if err := game.ValidateMaxTau(j.T); err != nil {
		return fmt.Errorf("market: %w", err)
	}
	return nil
}

// SellerSpec describes one candidate data seller: its private cost
// parameters. Its expected sensing quality lives in the quality
// model and is unknown to the mechanism.
type SellerSpec struct {
	Cost economics.SellerCost
}

// DataLayer optionally models the raw sensed data behind the
// qualities: a ground-truth signal per PoI, a sensor model mapping a
// seller's true quality to reading noise, and the aggregation
// operator the platform applies (Definition 2's aggregation service).
type DataLayer struct {
	Signal     aggregate.Signal
	Sensor     *aggregate.Sensor
	Aggregator aggregate.Aggregator
}

// Validate checks the layer is fully specified.
func (d *DataLayer) Validate() error {
	if d.Signal == nil || d.Sensor == nil || d.Aggregator == nil {
		return errors.New("market: data layer needs signal, sensor, and aggregator")
	}
	return nil
}

// Config assembles a CDT market.
type Config struct {
	Job      Job
	Sellers  []SellerSpec
	Platform economics.PlatformCost
	Consumer economics.Valuation
	PJBounds game.Bounds // consumer price space [p^J_min, p^J_max]
	PBounds  game.Bounds // platform price space [p_min, p_max]
	Quality  quality.Model
	Data     *DataLayer // optional raw-data layer

	// Departures optionally injects seller churn: Departures[i] = r
	// means seller i permanently leaves the market at the START of
	// round r (it can no longer be selected from round r on). Zero or
	// out-of-range means the seller never departs.
	Departures []int

	// DeliveryRate optionally injects transient failures: each
	// selected seller delivers its round's data with this probability
	// (default 1 when zero). A failing seller returns nothing, learns
	// nothing, is not paid, and incurs no cost that round. Must lie
	// in (0, 1] when set. Internally this is the i.i.d. special case
	// of the fault layer's delivery models.
	DeliveryRate float64
	// DeliverySeed seeds the failure draws (only used when
	// DeliveryRate < 1).
	DeliverySeed int64

	// Faults optionally configures the extended fault layer: bursty
	// Gilbert–Elliott delivery outages, renewal seller churn,
	// collection stragglers, and Byzantine quality corruption. A nil
	// or zero-intensity configuration injects nothing and leaves the
	// simulation bit-identical to a fault-free market. Faults compose
	// with the legacy fields above — except that a Gilbert–Elliott
	// delivery channel and a DeliveryRate cannot both be set (they
	// model the same failure once).
	Faults *faults.Config
}

// Validate checks the whole configuration.
func (c *Config) Validate() error {
	if err := c.Job.Validate(); err != nil {
		return err
	}
	if len(c.Sellers) == 0 {
		return errors.New("market: no sellers")
	}
	for i, s := range c.Sellers {
		if err := s.Cost.Validate(); err != nil {
			return fmt.Errorf("market: seller %d: %w", i, err)
		}
	}
	if err := c.Platform.Validate(); err != nil {
		return err
	}
	if err := c.Consumer.Validate(); err != nil {
		return err
	}
	if err := c.PJBounds.Validate(); err != nil {
		return fmt.Errorf("market: p^J bounds: %w", err)
	}
	if err := c.PBounds.Validate(); err != nil {
		return fmt.Errorf("market: p bounds: %w", err)
	}
	if c.Quality == nil {
		return errors.New("market: nil quality model")
	}
	if c.Quality.Sellers() != len(c.Sellers) {
		return fmt.Errorf("market: quality model covers %d sellers, config has %d",
			c.Quality.Sellers(), len(c.Sellers))
	}
	if c.Data != nil {
		if err := c.Data.Validate(); err != nil {
			return err
		}
	}
	if len(c.Departures) != 0 && len(c.Departures) != len(c.Sellers) {
		return fmt.Errorf("market: %d departures for %d sellers", len(c.Departures), len(c.Sellers))
	}
	if c.DeliveryRate < 0 || c.DeliveryRate > 1 {
		return fmt.Errorf("market: delivery rate %v outside [0, 1]", c.DeliveryRate)
	}
	if err := c.Faults.Validate(len(c.Sellers)); err != nil {
		return err
	}
	if c.deliveryRate() < 1 && c.Faults != nil && c.Faults.Delivery != (faults.DeliveryConfig{}) {
		return errors.New("market: DeliveryRate and a fault-layer delivery channel cannot both be set")
	}
	return nil
}

// deliveryRate returns the effective delivery probability.
func (c *Config) deliveryRate() float64 {
	if c.DeliveryRate == 0 {
		return 1
	}
	return c.DeliveryRate
}

// M returns the seller population size.
func (c *Config) M() int { return len(c.Sellers) }

// Market is a live CDT environment.
type Market struct {
	cfg      Config
	ledger   *ledger.Ledger
	inj      *faults.Injector // nil when nothing is injected
	delivery *rng.Source      // the legacy i.i.d. delivery stream, nil unless DeliveryRate < 1

	// Hot-path scratch, reused across calls (see Collect/Settle).
	obs       []float64
	settleIDs []int
	settlePay []float64
}

// New builds a market from a validated configuration, assembling the
// fault layer from the legacy failure fields (DeliveryRate,
// Departures) and the extended Faults configuration.
func New(cfg Config) (*Market, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Market{cfg: cfg, ledger: ledger.New()}
	inj, err := faults.New(cfg.Faults, len(cfg.Sellers))
	if err != nil {
		return nil, err
	}
	if cfg.deliveryRate() < 1 {
		// The legacy i.i.d. path keeps its historic stream (seeded
		// directly off DeliverySeed, one draw per check) so existing
		// seeded runs and snapshots stay bit-identical.
		if inj == nil {
			inj = &faults.Injector{}
		}
		m.delivery = rng.New(cfg.DeliverySeed)
		inj.Delivery = faults.NewIID(cfg.deliveryRate(), m.delivery)
	}
	if len(cfg.Departures) != 0 {
		if inj == nil {
			inj = &faults.Injector{}
		}
		inj.Churn = faults.ComposeChurn(faults.Scripted(cfg.Departures), inj.Churn)
	}
	m.inj = inj
	return m, nil
}

// Departed reports whether seller i has left the market by round t
// (scripted departures and renewal churn combined).
func (m *Market) Departed(i, t int) bool {
	d := m.inj.DepartureRound(i)
	return d > 0 && t >= d
}

// DepartureRound returns the round at whose start seller i permanently
// departs (scripted departures and renewal churn combined), or 0 when
// it never leaves. Departure rounds are fixed at construction, so the
// mechanism can precompute its churn schedule instead of scanning all
// sellers every round.
func (m *Market) DepartureRound(i int) int { return m.inj.DepartureRound(i) }

// Faults exposes the assembled fault injector (nil when the market
// injects nothing), for inspection by tests and diagnostics.
func (m *Market) Faults() *faults.Injector { return m.inj }

// Config returns the market's configuration.
func (m *Market) Config() *Config { return &m.cfg }

// Ledger exposes the settlement ledger (for inspection and
// invariant checks).
func (m *Market) Ledger() *ledger.Ledger { return m.ledger }

// State is the serializable state of a live Market: the settlement
// ledger plus the positions of every random stream the environment
// owns (delivery failures, quality observations, sensor noise, and
// the extended fault models). The market's structure — sellers,
// costs, bounds, the quality model's means — is rebuilt from
// configuration on resume and deliberately not persisted.
type State struct {
	Ledger   ledger.State   `json:"ledger"`
	Delivery *rng.State     `json:"delivery,omitempty"` // legacy i.i.d. delivery stream
	Quality  *quality.State `json:"quality,omitempty"`
	Sensor   *rng.State     `json:"sensor,omitempty"`
	Faults   *faults.State  `json:"faults,omitempty"` // extended fault-layer streams
}

// State exports the market for persistence.
func (m *Market) State() State {
	st := State{Ledger: m.ledger.State()}
	if m.delivery != nil {
		d := m.delivery.State()
		st.Delivery = &d
	}
	st.Faults = m.inj.State()
	if q, ok := m.cfg.Quality.(quality.Stateful); ok {
		qs := q.State()
		st.Quality = &qs
	}
	if m.cfg.Data != nil {
		ss := m.cfg.Data.Sensor.RNGState()
		st.Sensor = &ss
	}
	return st
}

// Restore overwrites the market's mutable state with an exported
// state. The market must have been built from the same configuration
// the state was exported under; structural mismatches (a stream the
// configuration does not own, or vice versa) are errors.
func (m *Market) Restore(st State) error {
	if (m.delivery != nil) != (st.Delivery != nil) {
		return errors.New("market: delivery stream state does not match configuration")
	}
	q, stateful := m.cfg.Quality.(quality.Stateful)
	if stateful != (st.Quality != nil) {
		return errors.New("market: quality stream state does not match configuration")
	}
	if (m.cfg.Data != nil) != (st.Sensor != nil) {
		return errors.New("market: sensor stream state does not match configuration")
	}
	if err := m.ledger.Restore(st.Ledger); err != nil {
		return err
	}
	if st.Delivery != nil {
		m.delivery.SetState(*st.Delivery)
	}
	if st.Quality != nil {
		if err := q.Restore(*st.Quality); err != nil {
			return err
		}
	}
	if st.Sensor != nil {
		m.cfg.Data.Sensor.RestoreRNG(*st.Sensor)
	}
	if err := m.inj.Restore(st.Faults); err != nil {
		return err
	}
	return nil
}

// GameParams assembles the Stackelberg game of one round for the
// selected sellers with their current estimated qualities. Estimates
// are floored at minQ (degenerate all-zero estimates would otherwise
// break the model's q̄ > 0 requirement); pass 0 to keep raw values.
func (m *Market) GameParams(selected []int, estimates []float64, minQ float64) *game.Params {
	return m.GameParamsInto(&game.Params{}, selected, estimates, minQ)
}

// GameParamsInto is GameParams writing into a caller-owned Params,
// reusing its Sellers/Qualities capacity so a steady-state round
// assembles the game without allocating. All fields of p are
// overwritten; it returns p.
func (m *Market) GameParamsInto(p *game.Params, selected []int, estimates []float64, minQ float64) *game.Params {
	n := len(selected)
	if cap(p.Sellers) < n {
		p.Sellers = make([]economics.SellerCost, n)
	}
	if cap(p.Qualities) < n {
		p.Qualities = make([]float64, n)
	}
	*p = game.Params{
		Sellers:   p.Sellers[:n],
		Qualities: p.Qualities[:n],
		Platform:  m.cfg.Platform,
		Consumer:  m.cfg.Consumer,
		PJBounds:  m.cfg.PJBounds,
		PBounds:   m.cfg.PBounds,
		MaxTau:    m.cfg.Job.T,
	}
	for j, i := range selected {
		p.Sellers[j] = m.cfg.Sellers[i].Cost
		q := estimates[i]
		if q < minQ {
			q = minQ
		}
		if q > 1 {
			q = 1
		}
		p.Qualities[j] = q
	}
	return p
}

// Collect runs seller i's data collection of round t: it senses at
// all L PoIs, producing L quality observations (Definition 3). It
// returns nil when the seller's data does not arrive — delivery
// failure (i.i.d. or Gilbert–Elliott channel) or a straggler missing
// the round deadline: no data, no pay, no cost. Byzantine sellers'
// observations pass through the corruption model, so the mechanism
// learns from what was REPORTED, not what was sensed. The row is
// BORROWED: the market owns it and the next Collect call overwrites
// it, so collection allocates once per market.
func (m *Market) Collect(round, i int) []float64 {
	if !m.inj.Delivers(round, i, m.cfg.Job.T) {
		return nil
	}
	if m.obs == nil {
		// Sized on first use, not in New: a market is built from a
		// resumed snapshot before any caller has checked its L.
		m.obs = make([]float64, m.cfg.Job.L)
	}
	for l := range m.obs {
		m.obs[l] = m.inj.Corrupt(i, l, round, m.cfg.Quality.Observe(i, l, round))
	}
	return m.obs
}

// CollectReadings produces the raw-data readings of a round when the
// data layer is configured: every selected seller reads every PoI
// with noise set by its TRUE quality, weighted for aggregation by its
// ESTIMATED quality. It then fuses them into per-PoI reports. Returns
// nil when no data layer is configured.
func (m *Market) CollectReadings(round int, selected []int, estimates []float64) []aggregate.Report {
	d := m.cfg.Data
	if d == nil {
		return nil
	}
	readings := make([]aggregate.Reading, 0, len(selected)*m.cfg.Job.L)
	for _, i := range selected {
		trueQ := m.cfg.Quality.Expected(i)
		w := estimates[i]
		for l := 0; l < m.cfg.Job.L; l++ {
			readings = append(readings, aggregate.Reading{
				Seller: i,
				PoI:    l,
				Value:  d.Sensor.Read(d.Signal, l, round, trueQ),
				Weight: w,
			})
		}
	}
	return aggregate.AggregateRound(d.Aggregator, d.Signal, round, m.cfg.Job.L, readings)
}

// Settle books the round's payments from the game outcome: the
// consumer pays p^J·Στ to the platform, the platform pays p·τ_i to
// seller i (Definition 5). Journal order is deterministic (sellers in
// ascending id), and the sort + transfers run on market-owned scratch
// so a steady-state settlement does not allocate.
func (m *Market) Settle(round int, selected []int, out *game.Outcome) error {
	n := len(selected)
	if cap(m.settleIDs) < n {
		m.settleIDs = make([]int, n)
		m.settlePay = make([]float64, n)
	}
	ids, pay := m.settleIDs[:n], m.settlePay[:n]
	for j, i := range selected {
		// Insertion sort by id: selections are small (K sellers) and
		// round 1's full-population selection arrives already sorted.
		p := out.SellerReward(j)
		q := j
		for q > 0 && ids[q-1] > i {
			ids[q], pay[q] = ids[q-1], pay[q-1]
			q--
		}
		ids[q], pay[q] = i, p
	}
	return m.ledger.SettleRoundSorted(round, out.TotalReward(), ids, pay)
}
