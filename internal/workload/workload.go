// Package workload generates the synthetic workloads behind the paper's
// two grounding applications (§2.2): p2p filesharing (keyword-tagged
// files with Zipf popularity and popularity-proportional replication —
// the regime behind Figure 1) and endpoint network monitoring (firewall
// logs with heavy-tailed source-IP concentration — the regime behind
// Figure 2 and the DOMINO study [74] it cites).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Zipf draws ranks 1..N with P(r) ∝ 1/r^s — the standard model for both
// file popularity in filesharing networks and source concentration in
// intrusion logs.
type Zipf struct {
	rng   *rand.Rand
	cdf   []float64
	theta float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent s.
func NewZipf(rng *rand.Rand, n int, s float64) *Zipf {
	if n < 1 {
		n = 1
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{rng: rng, cdf: cdf, theta: s}
}

// Rank draws a 1-based rank.
func (z *Zipf) Rank() int {
	u := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// File is one shared file in the catalog.
type File struct {
	Name     string
	Keywords []string
	// Replicas is how many peers share the file — proportional to the
	// popularity of its primary keyword.
	Replicas int
}

// Catalog is a filesharing corpus: a keyword vocabulary with Zipf
// popularity and files replicated according to it.
type Catalog struct {
	Files []File
	Vocab []string
	// RareMax is the replication threshold at or below which a file (and
	// queries for its keywords) count as "rare" — Figure 1's challenging
	// subset.
	RareMax int
}

// CatalogConfig parameterizes catalog generation.
type CatalogConfig struct {
	NumFiles  int
	VocabSize int
	// ZipfS is the keyword-popularity exponent; measurement studies of
	// Gnutella place it near 1.
	ZipfS float64
	// MaxReplicas is the replication of the most popular content.
	MaxReplicas int
	// RareMax classifies files with at most this many replicas as rare.
	RareMax int
	Seed    int64
}

func (c *CatalogConfig) fill() {
	if c.NumFiles <= 0 {
		c.NumFiles = 200
	}
	if c.VocabSize <= 0 {
		c.VocabSize = 100
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.0
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 40
	}
	if c.RareMax <= 0 {
		c.RareMax = 3
	}
}

// NewCatalog generates a corpus: file i carries a primary keyword whose
// popularity rank drives its replica count (popular keyword → widely
// replicated file), plus a unique secondary keyword.
func NewCatalog(cfg CatalogConfig) *Catalog {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := NewZipf(rng, cfg.VocabSize, cfg.ZipfS)
	vocab := make([]string, cfg.VocabSize)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("kw%03d", i+1) // kw001 is the most popular
	}
	cat := &Catalog{Vocab: vocab, RareMax: cfg.RareMax}
	for i := 0; i < cfg.NumFiles; i++ {
		rank := z.Rank()
		primary := vocab[rank-1]
		// Replicas fall off with keyword rank, mirroring the
		// popularity/replication correlation measured in Gnutella.
		replicas := cfg.MaxReplicas / rank
		if replicas < 1 {
			replicas = 1
		}
		cat.Files = append(cat.Files, File{
			Name:     fmt.Sprintf("file-%04d.mp3", i),
			Keywords: []string{primary, fmt.Sprintf("uniq%04d", i)},
			Replicas: replicas,
		})
	}
	return cat
}

// RareFiles returns the files replicated at or below the rare threshold.
func (c *Catalog) RareFiles() []File {
	var out []File
	for _, f := range c.Files {
		if f.Replicas <= c.RareMax {
			out = append(out, f)
		}
	}
	return out
}

// PopularFiles returns the complement of RareFiles.
func (c *Catalog) PopularFiles() []File {
	var out []File
	for _, f := range c.Files {
		if f.Replicas > c.RareMax {
			out = append(out, f)
		}
	}
	return out
}

// QueryMix draws keyword queries the way intercepted Gnutella traffic
// behaves: queries target files in proportion to their popularity
// (replica count), so most queries hit popular content and a tail hits
// rare content.
type QueryMix struct {
	cat *Catalog
	rng *rand.Rand
	// cumWeight[i] is the cumulative replica weight through file i.
	cumWeight []int
	total     int
}

// NewQueryMix builds a query generator over the catalog.
func NewQueryMix(cat *Catalog, seed int64) *QueryMix {
	m := &QueryMix{cat: cat, rng: rand.New(rand.NewSource(seed))}
	m.cumWeight = make([]int, len(cat.Files))
	for i, f := range cat.Files {
		m.total += f.Replicas
		m.cumWeight[i] = m.total
	}
	return m
}

// Next draws (keywords, target file) for one query, weighting file
// choice by replica count so the query stream mirrors content
// popularity.
func (m *QueryMix) Next() ([]string, File) {
	u := m.rng.Intn(m.total)
	lo, hi := 0, len(m.cumWeight)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if m.cumWeight[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	f := m.cat.Files[lo]
	return f.Keywords, f
}

// NextRare draws a query for a uniformly random rare file — Figure 1's
// "rare items" workload.
func (m *QueryMix) NextRare() ([]string, File) {
	rare := m.cat.RareFiles()
	if len(rare) == 0 {
		return m.Next()
	}
	f := rare[m.rng.Intn(len(rare))]
	return f.Keywords, f
}

// FirewallEvent is one synthetic firewall log record.
type FirewallEvent struct {
	Src      string
	DstPort  int
	Severity int
	At       time.Time
}

// FirewallGen produces firewall events whose source IPs follow a Zipf
// law: a few sources generate a large fraction of all events, matching
// the forensic observation ([74]) that Figure 2 visualizes live.
type FirewallGen struct {
	rng     *rand.Rand
	z       *Zipf
	sources []string
}

// NewFirewallGen creates a generator over numSources IPs with exponent s.
func NewFirewallGen(seed int64, numSources int, s float64) *FirewallGen {
	rng := rand.New(rand.NewSource(seed))
	if numSources <= 0 {
		numSources = 500
	}
	if s == 0 {
		s = 1.2
	}
	g := &FirewallGen{rng: rng, z: NewZipf(rng, numSources, s)}
	g.sources = make([]string, numSources)
	for i := range g.sources {
		// Rank 1 gets the lexically first address for readability.
		g.sources[i] = fmt.Sprintf("10.%d.%d.%d", i/65536, (i/256)%256, i%256)
	}
	return g
}

// Next draws one event at the given timestamp.
func (g *FirewallGen) Next(at time.Time) FirewallEvent {
	return FirewallEvent{
		Src:      g.sources[g.z.Rank()-1],
		DstPort:  []int{22, 23, 80, 135, 139, 443, 445, 1433, 3389}[g.rng.Intn(9)],
		Severity: 1 + g.rng.Intn(5),
		At:       at,
	}
}

// Source returns the rank'th source IP (1-based), for ground-truth
// checks.
func (g *FirewallGen) Source(rank int) string { return g.sources[rank-1] }

// Churn models node session behavior: exponentially distributed session
// (up) durations, the standard churn model from the Bamboo "Handling
// Churn in a DHT" study PIER builds on. A departed node is replaced at
// once by a fresh one, so the model draws no downtime.
type Churn struct {
	rng *rand.Rand
	// MeanSession parameterizes the exponential.
	MeanSession time.Duration
}

// NewChurn creates a churn model.
func NewChurn(seed int64, meanSession time.Duration) *Churn {
	return &Churn{rng: rand.New(rand.NewSource(seed)), MeanSession: meanSession}
}

// NextSession draws one session length.
func (c *Churn) NextSession() time.Duration {
	return time.Duration(c.rng.ExpFloat64() * float64(c.MeanSession))
}
