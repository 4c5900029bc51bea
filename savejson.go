package cmabhs

// Config's half of the Save codec (core.State has the other): writeConfig
// appends exactly json.Marshal(c), and readConfig reads back exactly
// that shape, failing the reader on anything else. Config carries no
// JSON tags, so every key is its field's name and every field is
// written, nil slices and pointers as null; Observer (json:"-") is not.

import "cmabhs/internal/jsonw"

// econFields are Config's float fields from RoundDuration to
// ObservationSD, which are written in a row.
func (c *Config) econFields() [9]struct {
	key string
	v   *float64
} {
	return [9]struct {
		key string
		v   *float64
	}{
		{"RoundDuration", &c.RoundDuration}, {"Theta", &c.Theta}, {"Lambda", &c.Lambda},
		{"Omega", &c.Omega}, {"PJMin", &c.PJMin}, {"PJMax", &c.PJMax},
		{"PMin", &c.PMin}, {"PMax", &c.PMax}, {"ObservationSD", &c.ObservationSD},
	}
}

func writeConfig(w *jsonw.W, c *Config) {
	w.Raw(`{"Sellers":`)
	jsonw.Array(w, c.Sellers, func(w *jsonw.W, s *Seller) {
		w.Raw(`{"CostQuadratic":`)
		w.Float(s.CostQuadratic)
		w.Raw(`,"CostLinear":`)
		w.Float(s.CostLinear)
		w.Raw(`,"ExpectedQuality":`)
		w.Float(s.ExpectedQuality)
		w.B = append(w.B, '}')
	})
	w.Raw(`,"K":`)
	w.Int(int64(c.K))
	w.Raw(`,"PoIs":`)
	w.Int(int64(c.PoIs))
	w.Raw(`,"Rounds":`)
	w.Int(int64(c.Rounds))
	for _, f := range c.econFields() {
		w.Raw(`,"`)
		w.Raw(f.key)
		w.Raw(`":`)
		w.Float(*f.v)
	}
	w.Raw(`,"Seed":`)
	w.Int(c.Seed)
	w.Raw(`,"Policy":`)
	w.Str(string(c.Policy))
	w.Raw(`,"Epsilon":`)
	w.Float(c.Epsilon)
	w.Raw(`,"Window":`)
	w.Int(int64(c.Window))
	w.Raw(`,"Gamma":`)
	w.Float(c.Gamma)
	w.Raw(`,"Solver":`)
	w.Str(string(c.Solver))
	w.Raw(`,"QualityDrift":`)
	if d := c.QualityDrift; d == nil {
		w.Raw("null")
	} else {
		w.Raw(`{"Amplitude":`)
		w.Float(d.Amplitude)
		w.Raw(`,"Period":`)
		w.Float(d.Period)
		w.B = append(w.B, '}')
	}
	w.Raw(`,"Tau0":`)
	w.Float(c.Tau0)
	w.Raw(`,"ColdStart":`)
	w.Bool(c.ColdStart)
	w.Raw(`,"KeepRounds":`)
	w.Bool(c.KeepRounds)
	w.Raw(`,"Checkpoints":`)
	w.Ints(c.Checkpoints)
	w.Raw(`,"Budget":`)
	w.Float(c.Budget)
	w.Raw(`,"Departures":`)
	w.Ints(c.Departures)
	w.Raw(`,"DeliveryRate":`)
	w.Float(c.DeliveryRate)
	w.Raw(`,"Faults":`)
	if f := c.Faults; f == nil {
		w.Raw("null")
	} else {
		w.Raw(`{"Seed":`)
		w.Int(f.Seed)
		w.Raw(`,"Channel":{"GoodToBad":`)
		w.Float(f.Channel.GoodToBad)
		w.Raw(`,"BadToGood":`)
		w.Float(f.Channel.BadToGood)
		w.Raw(`,"LossGood":`)
		w.Float(f.Channel.LossGood)
		w.Raw(`,"LossBad":`)
		w.Float(f.Channel.LossBad)
		w.Raw(`},"Churn":{"Rate":`)
		w.Float(f.Churn.Rate)
		w.Raw(`,"MinRound":`)
		w.Int(int64(f.Churn.MinRound))
		w.Raw(`},"Straggler":{"Prob":`)
		w.Float(f.Straggler.Prob)
		w.Raw(`,"MeanDelay":`)
		w.Float(f.Straggler.MeanDelay)
		w.Raw(`,"Deadline":`)
		w.Float(f.Straggler.Deadline)
		w.Raw(`},"Byzantine":{"Fraction":`)
		w.Float(f.Byzantine.Fraction)
		w.Raw(`,"Sellers":`)
		w.Ints(f.Byzantine.Sellers)
		w.Raw(`,"Mode":`)
		w.Str(f.Byzantine.Mode)
		w.Raw(`,"Inflation":`)
		w.Float(f.Byzantine.Inflation)
		w.Raw("}}")
	}
	w.Raw(`,"CollectData":`)
	w.Bool(c.CollectData)
	w.B = append(w.B, '}')
}

func readConfig(r *jsonw.R, c *Config) {
	r.Open()
	r.Key("Sellers")
	c.Sellers = jsonw.Slice(r, func(r *jsonw.R, s *Seller) {
		r.Open()
		r.Key("CostQuadratic")
		s.CostQuadratic = r.Float()
		r.Key("CostLinear")
		s.CostLinear = r.Float()
		r.Key("ExpectedQuality")
		s.ExpectedQuality = r.Float()
		r.Close()
	})
	r.Key("K")
	c.K = r.Int()
	r.Key("PoIs")
	c.PoIs = r.Int()
	r.Key("Rounds")
	c.Rounds = r.Int()
	for _, f := range c.econFields() {
		r.Key(f.key)
		*f.v = r.Float()
	}
	r.Key("Seed")
	c.Seed = r.Int64()
	r.Key("Policy")
	c.Policy = Policy(r.Str())
	r.Key("Epsilon")
	c.Epsilon = r.Float()
	r.Key("Window")
	c.Window = r.Int()
	r.Key("Gamma")
	c.Gamma = r.Float()
	r.Key("Solver")
	c.Solver = Solver(r.Str())
	r.Key("QualityDrift")
	if !r.Null() {
		d := new(Drift)
		c.QualityDrift = d
		r.Open()
		r.Key("Amplitude")
		d.Amplitude = r.Float()
		r.Key("Period")
		d.Period = r.Float()
		r.Close()
	}
	r.Key("Tau0")
	c.Tau0 = r.Float()
	r.Key("ColdStart")
	c.ColdStart = r.Bool()
	r.Key("KeepRounds")
	c.KeepRounds = r.Bool()
	r.Key("Checkpoints")
	c.Checkpoints = r.Ints()
	r.Key("Budget")
	c.Budget = r.Float()
	r.Key("Departures")
	c.Departures = r.Ints()
	r.Key("DeliveryRate")
	c.DeliveryRate = r.Float()
	r.Key("Faults")
	if !r.Null() {
		f := new(FaultConfig)
		c.Faults = f
		r.Open()
		r.Key("Seed")
		f.Seed = r.Int64()
		r.Key("Channel")
		r.Open()
		r.Key("GoodToBad")
		f.Channel.GoodToBad = r.Float()
		r.Key("BadToGood")
		f.Channel.BadToGood = r.Float()
		r.Key("LossGood")
		f.Channel.LossGood = r.Float()
		r.Key("LossBad")
		f.Channel.LossBad = r.Float()
		r.Close()
		r.Key("Churn")
		r.Open()
		r.Key("Rate")
		f.Churn.Rate = r.Float()
		r.Key("MinRound")
		f.Churn.MinRound = r.Int()
		r.Close()
		r.Key("Straggler")
		r.Open()
		r.Key("Prob")
		f.Straggler.Prob = r.Float()
		r.Key("MeanDelay")
		f.Straggler.MeanDelay = r.Float()
		r.Key("Deadline")
		f.Straggler.Deadline = r.Float()
		r.Close()
		r.Key("Byzantine")
		r.Open()
		r.Key("Fraction")
		f.Byzantine.Fraction = r.Float()
		r.Key("Sellers")
		f.Byzantine.Sellers = r.Ints()
		r.Key("Mode")
		f.Byzantine.Mode = r.Str()
		r.Key("Inflation")
		f.Byzantine.Inflation = r.Float()
		r.Close()
		r.Close()
	}
	r.Key("CollectData")
	c.CollectData = r.Bool()
	r.Close()
}
