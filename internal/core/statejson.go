package core

// State's JSON codec, written field by field through internal/jsonw:
// WriteJSON appends exactly json.Marshal(s), and ReadState reads back
// exactly that shape in one strict pass. Each writer below has its
// reader beside it, with the same keys in the same order; a field
// tagged omitempty is written and read only when it is non-empty.
// FuzzSaveEncoding holds both to encoding/json.

import (
	"cmabhs/internal/bandit"
	"cmabhs/internal/faults"
	"cmabhs/internal/jsonw"
	"cmabhs/internal/ledger"
	"cmabhs/internal/market"
	"cmabhs/internal/numutil"
	"cmabhs/internal/quality"
	"cmabhs/internal/rng"
)

// WriteJSON appends json.Marshal(s) to w; a NaN or an infinity fails
// w with json.Marshal's error.
func (s *State) WriteJSON(w *jsonw.W) {
	w.Raw(`{"version":`)
	w.Int(int64(s.Version))
	w.Raw(`,"policy":`)
	w.Str(s.Policy)
	w.Raw(`,"next":`)
	w.Int(int64(s.Next))
	if s.Stopped != "" {
		w.Raw(`,"stopped":`)
		w.Str(s.Stopped)
	}
	w.Raw(`,"rounds_played":`)
	w.Int(int64(s.RoundsPlayed))
	w.Raw(`,"arms":`)
	writeArms(w, &s.Arms)
	w.Raw(`,"tracker":`)
	writeTracker(w, &s.Tracker)
	if p := s.PolicyState; p != nil {
		w.Raw(`,"policy_state":`)
		writePolicyState(w, p)
	}
	w.Raw(`,"market":`)
	writeMarket(w, &s.Market)
	for _, k := range [...]struct {
		key string
		v   *numutil.KahanState
	}{
		{`,"realized":`, &s.Realized}, {`,"cum_poc":`, &s.CumPoC}, {`,"cum_pop":`, &s.CumPoP},
		{`,"cum_pos":`, &s.CumPoS}, {`,"spend":`, &s.Spend}, {`,"agg_sum":`, &s.AggSum},
	} {
		w.Raw(k.key)
		writeKahan(w, k.v)
	}
	w.Raw(`,"agg_rounds":`)
	w.Int(int64(s.AggRounds))
	w.Raw(`,"next_ckpt":`)
	w.Int(int64(s.NextCkpt))
	w.Raw(`,"seller_totals":`)
	w.Floats(s.SellerTotals)
	if d := s.Dynamic; d != nil {
		w.Raw(`,"dynamic":{"regret":`)
		w.Float(d.Regret)
		w.Raw(`,"rounds":`)
		w.Int(int64(d.Rounds))
		w.B = append(w.B, '}')
	}
	if len(s.Rounds) > 0 {
		w.Raw(`,"rounds":`)
		jsonw.Array(w, s.Rounds, writeRound)
	}
	if len(s.Checkpoints) > 0 {
		w.Raw(`,"checkpoints":`)
		jsonw.Array(w, s.Checkpoints, writeCheckpoint)
	}
	w.B = append(w.B, '}')
}

// ReadState reads a state of the current version in the shape
// WriteJSON writes. It fails r on anything else, and validates
// nothing beyond the shape: Resume does.
func ReadState(r *jsonw.R) *State {
	s := new(State)
	r.Open()
	r.Key("version")
	if s.Version = r.Int(); s.Version != StateVersion {
		r.Fail()
	}
	r.Key("policy")
	s.Policy = r.Str()
	r.Key("next")
	s.Next = r.Int()
	if r.OptKey("stopped") {
		s.Stopped = r.Str()
	}
	r.Key("rounds_played")
	s.RoundsPlayed = r.Int()
	r.Key("arms")
	readArms(r, &s.Arms)
	r.Key("tracker")
	readTracker(r, &s.Tracker)
	if r.OptKey("policy_state") {
		s.PolicyState = new(bandit.PolicyState)
		readPolicyState(r, s.PolicyState)
	}
	r.Key("market")
	readMarket(r, &s.Market)
	for _, k := range [...]struct {
		key string
		v   *numutil.KahanState
	}{
		{"realized", &s.Realized}, {"cum_poc", &s.CumPoC}, {"cum_pop", &s.CumPoP},
		{"cum_pos", &s.CumPoS}, {"spend", &s.Spend}, {"agg_sum", &s.AggSum},
	} {
		r.Key(k.key)
		readKahan(r, k.v)
	}
	r.Key("agg_rounds")
	s.AggRounds = r.Int()
	r.Key("next_ckpt")
	s.NextCkpt = r.Int()
	r.Key("seller_totals")
	s.SellerTotals = r.Floats()
	if r.OptKey("dynamic") {
		s.Dynamic = new(bandit.DynamicRegretState)
		r.Open()
		r.Key("regret")
		s.Dynamic.Regret = r.Float()
		r.Key("rounds")
		s.Dynamic.Rounds = r.Int()
		r.Close()
	}
	if r.OptKey("rounds") {
		s.Rounds = jsonw.Slice(r, readRound)
	}
	if r.OptKey("checkpoints") {
		s.Checkpoints = jsonw.Slice(r, readCheckpoint)
	}
	r.Close()
	return s
}

func writeKahan(w *jsonw.W, k *numutil.KahanState) {
	w.Raw(`{"sum":`)
	w.Float(k.Sum)
	w.Raw(`,"c":`)
	w.Float(k.C)
	w.B = append(w.B, '}')
}

func readKahan(r *jsonw.R, k *numutil.KahanState) {
	r.Open()
	r.Key("sum")
	k.Sum = r.Float()
	r.Key("c")
	k.C = r.Float()
	r.Close()
}

func writeArms(w *jsonw.W, a *bandit.ArmsState) {
	w.Raw(`{"count":`)
	w.Int64s(a.Count)
	w.Raw(`,"mean":`)
	w.Floats(a.Mean)
	w.Raw(`,"sum":`)
	w.Floats(a.Sum)
	w.Raw(`,"total":`)
	w.Int(a.Total)
	w.Raw(`,"inactive":`)
	w.Bools(a.Inactive)
	w.B = append(w.B, '}')
}

func readArms(r *jsonw.R, a *bandit.ArmsState) {
	r.Open()
	r.Key("count")
	a.Count = r.Int64s()
	r.Key("mean")
	a.Mean = r.Floats()
	r.Key("sum")
	a.Sum = r.Floats()
	r.Key("total")
	a.Total = r.Int64()
	r.Key("inactive")
	a.Inactive = r.Bools()
	r.Close()
}

func writeTracker(w *jsonw.W, t *bandit.TrackerState) {
	w.Raw(`{"regret":`)
	writeKahan(w, &t.Regret)
	w.Raw(`,"revenue":`)
	writeKahan(w, &t.Revenue)
	w.Raw(`,"rounds":`)
	w.Int(int64(t.Rounds))
	w.Raw(`,"counters":`)
	w.Int64s(t.Counters)
	w.B = append(w.B, '}')
}

func readTracker(r *jsonw.R, t *bandit.TrackerState) {
	r.Open()
	r.Key("regret")
	readKahan(r, &t.Regret)
	r.Key("revenue")
	readKahan(r, &t.Revenue)
	r.Key("rounds")
	t.Rounds = r.Int()
	r.Key("counters")
	t.Counters = r.Int64s()
	r.Close()
}

// optKey writes the key of a field in an object whose fields are all
// omitempty, so that any of them may come first: the object's '{'
// before the first field written, a comma before each later one. *n
// counts the fields written; closeOpt ends the object.
func optKey(w *jsonw.W, n *int, key string) {
	if *n == 0 {
		w.B = append(w.B, '{')
	} else {
		w.B = append(w.B, ',')
	}
	*n++
	w.Raw(key)
}

// closeOpt ends an object optKey wrote n fields of.
func closeOpt(w *jsonw.W, n int) {
	if n == 0 {
		w.B = append(w.B, '{')
	}
	w.B = append(w.B, '}')
}

func writePolicyState(w *jsonw.W, p *bandit.PolicyState) {
	n := 0
	optRNG(w, &n, `"rng":`, p.RNG)
	if win := p.Window; win != nil {
		optKey(w, &n, `"window":{"window":`)
		w.Int(int64(win.Window))
		w.Raw(`,"arms":`)
		jsonw.Array(w, win.Arms, func(w *jsonw.W, row *[]bandit.BatchState) {
			jsonw.Array(w, *row, writeBatch)
		})
		w.Raw(`,"count":`)
		w.Int64s(win.Count)
		w.Raw(`,"sum":`)
		w.Floats(win.Sum)
		w.Raw(`,"total":`)
		w.Int(win.Total)
		w.B = append(w.B, '}')
	}
	if d := p.Discounted; d != nil {
		optKey(w, &n, `"discounted":{"gamma":`)
		w.Float(d.Gamma)
		w.Raw(`,"count":`)
		w.Floats(d.Count)
		w.Raw(`,"sum":`)
		w.Floats(d.Sum)
		w.Raw(`,"as_of":`)
		w.Ints(d.AsOf)
		w.B = append(w.B, '}')
	}
	closeOpt(w, n)
}

func readPolicyState(r *jsonw.R, p *bandit.PolicyState) {
	r.Open()
	p.RNG = readOptRNG(r, "rng")
	if r.OptKey("window") {
		win := new(bandit.WindowState)
		p.Window = win
		r.Open()
		r.Key("window")
		win.Window = r.Int()
		r.Key("arms")
		win.Arms = jsonw.Slice(r, func(r *jsonw.R, row *[]bandit.BatchState) {
			*row = jsonw.Slice(r, readBatch)
		})
		r.Key("count")
		win.Count = r.Int64s()
		r.Key("sum")
		win.Sum = r.Floats()
		r.Key("total")
		win.Total = r.Int64()
		r.Close()
	}
	if r.OptKey("discounted") {
		d := new(bandit.DiscountedState)
		p.Discounted = d
		r.Open()
		r.Key("gamma")
		d.Gamma = r.Float()
		r.Key("count")
		d.Count = r.Floats()
		r.Key("sum")
		d.Sum = r.Floats()
		r.Key("as_of")
		d.AsOf = r.Ints()
		r.Close()
	}
	r.Close()
}

func writeBatch(w *jsonw.W, b *bandit.BatchState) {
	w.Raw(`{"round":`)
	w.Int(int64(b.Round))
	w.Raw(`,"n":`)
	w.Int(b.N)
	w.Raw(`,"sum":`)
	w.Float(b.Sum)
	w.B = append(w.B, '}')
}

func readBatch(r *jsonw.R, b *bandit.BatchState) {
	r.Open()
	r.Key("round")
	b.Round = r.Int()
	r.Key("n")
	b.N = r.Int64()
	r.Key("sum")
	b.Sum = r.Float()
	r.Close()
}

func writeRNG(w *jsonw.W, s *rng.State) {
	w.Raw(`{"seed":`)
	w.Int(s.Seed)
	w.Raw(`,"state":`)
	w.Uint(s.State)
	w.B = append(w.B, '}')
}

func readRNG(r *jsonw.R, s *rng.State) {
	r.Open()
	r.Key("seed")
	s.Seed = r.Int64()
	r.Key("state")
	s.State = r.Uint64()
	r.Close()
}

// optRNG writes an omitempty *rng.State field through optKey.
func optRNG(w *jsonw.W, n *int, key string, s *rng.State) {
	if s != nil {
		optKey(w, n, key)
		writeRNG(w, s)
	}
}

// readOptRNG reads an omitempty *rng.State field, if it is next.
func readOptRNG(r *jsonw.R, key string) *rng.State {
	if !r.OptKey(key) {
		return nil
	}
	s := new(rng.State)
	readRNG(r, s)
	return s
}

func writeMarket(w *jsonw.W, m *market.State) {
	w.Raw(`{"ledger":{"accounts":`)
	l := &m.Ledger
	jsonw.Array(w, l.Accounts, func(w *jsonw.W, a *ledger.Account) { w.Str(string(*a)) })
	w.Raw(`,"balances":`)
	w.Floats(l.Balances)
	w.Raw(`,"transfers":`)
	w.Int(l.Transfers)
	w.Raw(`,"digest":`)
	w.Bytes(l.Digest)
	w.B = append(w.B, '}')
	n := 1 // the ledger is always written
	optRNG(w, &n, `"delivery":`, m.Delivery)
	if q := m.Quality; q != nil {
		optKey(w, &n, `"quality":{"rng":`)
		writeRNG(w, &q.RNG)
		w.B = append(w.B, '}')
	}
	optRNG(w, &n, `"sensor":`, m.Sensor)
	if f := m.Faults; f != nil {
		optKey(w, &n, `"faults":`)
		nf := 0
		optRNG(w, &nf, `"delivery":`, f.Delivery)
		if len(f.Channels) > 0 {
			optKey(w, &nf, `"channels":`)
			w.Bools(f.Channels)
		}
		optRNG(w, &nf, `"straggler":`, f.Straggler)
		optRNG(w, &nf, `"corruption":`, f.Corruption)
		closeOpt(w, nf)
	}
	w.B = append(w.B, '}')
}

func readMarket(r *jsonw.R, m *market.State) {
	r.Open()
	r.Key("ledger")
	l := &m.Ledger
	r.Open()
	r.Key("accounts")
	l.Accounts = jsonw.Slice(r, func(r *jsonw.R, a *ledger.Account) { *a = ledger.Account(r.Str()) })
	r.Key("balances")
	l.Balances = r.Floats()
	r.Key("transfers")
	l.Transfers = r.Int64()
	r.Key("digest")
	l.Digest = r.Bytes()
	r.Close()
	m.Delivery = readOptRNG(r, "delivery")
	if r.OptKey("quality") {
		m.Quality = new(quality.State)
		r.Open()
		r.Key("rng")
		readRNG(r, &m.Quality.RNG)
		r.Close()
	}
	m.Sensor = readOptRNG(r, "sensor")
	if r.OptKey("faults") {
		f := new(faults.State)
		m.Faults = f
		r.Open()
		f.Delivery = readOptRNG(r, "delivery")
		if r.OptKey("channels") {
			f.Channels = r.Bools()
		}
		f.Straggler = readOptRNG(r, "straggler")
		f.Corruption = readOptRNG(r, "corruption")
		r.Close()
	}
	r.Close()
}

func writeRound(w *jsonw.W, rd *roundRecordWire) {
	w.Raw(`{"round":`)
	w.Int(int64(rd.Round))
	w.Raw(`,"selected":`)
	w.Ints(rd.Selected)
	w.Raw(`,"pj":`)
	w.Float(rd.PJ)
	w.Raw(`,"p":`)
	w.Float(rd.P)
	w.Raw(`,"taus":`)
	w.Floats(rd.Taus)
	w.Raw(`,"total_tau":`)
	w.Float(rd.TotalTau)
	w.Raw(`,"poc":`)
	w.Float(rd.PoC)
	w.Raw(`,"pop":`)
	w.Float(rd.PoP)
	w.Raw(`,"seller_profits":`)
	w.Floats(rd.SellerProfits)
	if rd.NoTrade {
		w.Raw(`,"no_trade":true`)
	}
	w.Raw(`,"realized":`)
	w.Float(rd.Realized)
	if rd.AggRMSE != nil {
		w.Raw(`,"agg_rmse":`)
		w.Float(*rd.AggRMSE)
	}
	w.B = append(w.B, '}')
}

func readRound(r *jsonw.R, rd *roundRecordWire) {
	r.Open()
	r.Key("round")
	rd.Round = r.Int()
	r.Key("selected")
	rd.Selected = r.Ints()
	r.Key("pj")
	rd.PJ = r.Float()
	r.Key("p")
	rd.P = r.Float()
	r.Key("taus")
	rd.Taus = r.Floats()
	r.Key("total_tau")
	rd.TotalTau = r.Float()
	r.Key("poc")
	rd.PoC = r.Float()
	r.Key("pop")
	rd.PoP = r.Float()
	r.Key("seller_profits")
	rd.SellerProfits = r.Floats()
	if r.OptKey("no_trade") {
		rd.NoTrade = r.Bool()
	}
	r.Key("realized")
	rd.Realized = r.Float()
	if r.OptKey("agg_rmse") {
		v := r.Float()
		rd.AggRMSE = &v
	}
	r.Close()
}

func writeCheckpoint(w *jsonw.W, c *Checkpoint) {
	w.Raw(`{"Round":`)
	w.Int(int64(c.Round))
	w.Raw(`,"RealizedRevenue":`)
	w.Float(c.RealizedRevenue)
	w.Raw(`,"ExpectedRevenue":`)
	w.Float(c.ExpectedRevenue)
	w.Raw(`,"Regret":`)
	w.Float(c.Regret)
	w.Raw(`,"CumPoC":`)
	w.Float(c.CumPoC)
	w.Raw(`,"CumPoP":`)
	w.Float(c.CumPoP)
	w.Raw(`,"CumPoS":`)
	w.Float(c.CumPoS)
	w.B = append(w.B, '}')
}

func readCheckpoint(r *jsonw.R, c *Checkpoint) {
	r.Open()
	r.Key("Round")
	c.Round = r.Int()
	r.Key("RealizedRevenue")
	c.RealizedRevenue = r.Float()
	r.Key("ExpectedRevenue")
	c.ExpectedRevenue = r.Float()
	r.Key("Regret")
	c.Regret = r.Float()
	r.Key("CumPoC")
	c.CumPoC = r.Float()
	r.Key("CumPoP")
	c.CumPoP = r.Float()
	r.Key("CumPoS")
	c.CumPoS = r.Float()
	r.Close()
}
