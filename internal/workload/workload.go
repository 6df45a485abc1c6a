// Package workload builds the synthetic schemas and datasets used by tests,
// examples and the experiment harness: the Emp/Dept schema from the paper's
// own examples, a star (OLAP) schema for §4.1.1's decision-support claims,
// and chain-join schemas for enumeration experiments. Data generators use
// seeded PRNGs so every experiment is reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/stats"
	"repro/internal/storage"
)

// DB bundles a catalog and a store.
type DB struct {
	Cat   *catalog.Catalog
	Store *storage.Store
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{Cat: catalog.New(), Store: storage.NewStore()}
}

// Analyze collects statistics on every table.
func (db *DB) Analyze(opts stats.AnalyzeOptions) {
	stats.AnalyzeAll(db.Store, db.Cat, opts)
}

// MustAddTable registers a table and creates storage, panicking on error
// (generator bugs are programming errors).
func (db *DB) MustAddTable(t *catalog.Table) *storage.Table {
	if err := db.Cat.AddTable(t); err != nil {
		panic(err)
	}
	st, err := db.Store.CreateTable(t)
	if err != nil {
		panic(err)
	}
	return st
}

// Open returns db's catalog, statistics included, over a new store that
// recovers each table's segments from dir and reads them through an empty
// block cache of cacheBytes: a restart, as far as the cache is concerned.
func (db *DB) Open(dir string, cacheBytes int64) (*DB, error) {
	out := &DB{Cat: db.Cat, Store: storage.NewStoreWith(storage.StoreConfig{Dir: dir, CacheBytes: cacheBytes})}
	for _, t := range db.Cat.Tables() {
		if _, err := out.Store.CreateTable(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SaveTo writes every table of db into segment files under the empty
// directory dir, flushed so that no row stays in a volatile tail; Open then
// reads them back with the same row ids.
func (db *DB) SaveTo(dir string) error {
	disk, err := db.Open(dir, 0)
	if err != nil {
		return err
	}
	for _, def := range db.Cat.Tables() {
		src, ok := db.Store.Table(def.Name)
		if !ok {
			return fmt.Errorf("workload: no storage for table %s", def.Name)
		}
		dst, _ := disk.Store.Table(def.Name) // Open created every catalog table
		rows, err := src.Rows(nil)
		if err != nil {
			return err
		}
		if err := dst.InsertBatch(rows); err != nil {
			return err
		}
	}
	return disk.Store.FlushAll()
}

// EmpDeptConfig sizes the paper's Emp/Dept schema.
type EmpDeptConfig struct {
	Emps  int
	Depts int
	Seed  int64
}

// EmpDept builds the schema of the paper's running examples:
//
//	Emp(eid, name, did, sal, age, dname_ref)  with indexes on eid (clustered) and did
//	Dept(did, dname, loc, budget, mgr, num_machines)  with index on did
//
// Emp.did is a foreign key into Dept; Dept.mgr references Emp.eid.
func EmpDept(cfg EmpDeptConfig) *DB {
	if cfg.Emps == 0 {
		cfg.Emps = 10000
	}
	if cfg.Depts == 0 {
		cfg.Depts = 100
	}
	db := NewDB()
	emp := &catalog.Table{
		Name: "Emp",
		Cols: []catalog.Column{
			{Name: "eid", Kind: datum.KindInt, NotNull: true},
			{Name: "name", Kind: datum.KindString},
			{Name: "did", Kind: datum.KindInt},
			{Name: "sal", Kind: datum.KindFloat},
			{Name: "age", Kind: datum.KindInt},
			{Name: "dname_ref", Kind: datum.KindString},
		},
		PrimaryKey: []int{0},
		Indexes: []*catalog.Index{
			{Name: "emp_eid", Cols: []int{0}, Unique: true, Clustered: true},
			{Name: "emp_did", Cols: []int{2}},
		},
	}
	dept := &catalog.Table{
		Name: "Dept",
		Cols: []catalog.Column{
			{Name: "did", Kind: datum.KindInt, NotNull: true},
			{Name: "dname", Kind: datum.KindString},
			{Name: "loc", Kind: datum.KindString},
			{Name: "budget", Kind: datum.KindFloat},
			{Name: "mgr", Kind: datum.KindInt},
			{Name: "num_machines", Kind: datum.KindInt},
		},
		PrimaryKey: []int{0},
		Indexes: []*catalog.Index{
			{Name: "dept_did", Cols: []int{0}, Unique: true, Clustered: true},
		},
	}
	et := db.MustAddTable(emp)
	dt := db.MustAddTable(dept)

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	locs := []string{"Denver", "Seattle", "Austin", "Boston", "Chicago"}
	for d := 0; d < cfg.Depts; d++ {
		if err := dt.Insert(datum.Row{
			datum.NewInt(int64(d)),
			datum.NewString(fmt.Sprintf("dept%03d", d)),
			datum.NewString(locs[rng.Intn(len(locs))]),
			datum.NewFloat(float64(50 + rng.Intn(950))),
			datum.NewInt(int64(rng.Intn(cfg.Emps))),
			datum.NewInt(int64(1 + rng.Intn(50))),
		}); err != nil {
			panic(err)
		}
	}
	for e := 0; e < cfg.Emps; e++ {
		did := datum.NewInt(int64(rng.Intn(cfg.Depts)))
		if rng.Intn(100) == 0 {
			did = datum.Null
		}
		if err := et.Insert(datum.Row{
			datum.NewInt(int64(e)),
			datum.NewString(fmt.Sprintf("emp%05d", e)),
			did,
			datum.NewFloat(float64(20000+rng.Intn(180000)) / 10),
			datum.NewInt(int64(20 + rng.Intn(45))),
			datum.NewString(fmt.Sprintf("dept%03d", rng.Intn(cfg.Depts))),
		}); err != nil {
			panic(err)
		}
	}
	return db
}

// StarConfig sizes the star schema.
type StarConfig struct {
	FactRows int
	DimRows  []int // one entry per dimension table
	Seed     int64
	// Skew applies Zipfian skew to fact foreign keys when > 1.
	Skew float64
}

// Star builds a decision-support star schema (§4.1.1): one fact table
// sales(k1..kn, qty, amount) and n dimension tables dim_i(k, attr, filt).
func Star(cfg StarConfig) *DB {
	if cfg.FactRows == 0 {
		cfg.FactRows = 50000
	}
	if len(cfg.DimRows) == 0 {
		cfg.DimRows = []int{100, 100, 100}
	}
	db := NewDB()
	n := len(cfg.DimRows)

	factCols := make([]catalog.Column, 0, n+2)
	for i := 0; i < n; i++ {
		factCols = append(factCols, catalog.Column{Name: fmt.Sprintf("k%d", i+1), Kind: datum.KindInt})
	}
	factCols = append(factCols,
		catalog.Column{Name: "qty", Kind: datum.KindInt},
		catalog.Column{Name: "amount", Kind: datum.KindFloat},
	)
	var factIdx []*catalog.Index
	for i := 0; i < n; i++ {
		factIdx = append(factIdx, &catalog.Index{Name: fmt.Sprintf("sales_k%d", i+1), Cols: []int{i}})
	}
	// A composite key index makes Cartesian products of dimension tables
	// attractive (§4.1.1): the product's (k1..kn) combinations probe the
	// fact table directly.
	if n >= 2 {
		allKeys := make([]int, n)
		for i := range allKeys {
			allKeys[i] = i
		}
		factIdx = append(factIdx, &catalog.Index{Name: "sales_all_keys", Cols: allKeys})
	}
	fact := &catalog.Table{Name: "sales", Cols: factCols, Indexes: factIdx}
	ft := db.MustAddTable(fact)

	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	dimTabs := make([]*storage.Table, n)
	for i := 0; i < n; i++ {
		dim := &catalog.Table{
			Name: fmt.Sprintf("dim%d", i+1),
			Cols: []catalog.Column{
				{Name: "k", Kind: datum.KindInt, NotNull: true},
				{Name: "attr", Kind: datum.KindString},
				{Name: "filt", Kind: datum.KindInt},
			},
			PrimaryKey: []int{0},
			Indexes: []*catalog.Index{
				{Name: fmt.Sprintf("dim%d_k", i+1), Cols: []int{0}, Unique: true, Clustered: true},
			},
		}
		dimTabs[i] = db.MustAddTable(dim)
		for r := 0; r < cfg.DimRows[i]; r++ {
			if err := dimTabs[i].Insert(datum.Row{
				datum.NewInt(int64(r)),
				datum.NewString(fmt.Sprintf("d%d_%04d", i+1, r)),
				datum.NewInt(int64(rng.Intn(10))),
			}); err != nil {
				panic(err)
			}
		}
	}

	var zipfs []*rand.Zipf
	if cfg.Skew > 1 {
		for i := 0; i < n; i++ {
			zipfs = append(zipfs, rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.DimRows[i]-1)))
		}
	}
	for r := 0; r < cfg.FactRows; r++ {
		row := make(datum.Row, 0, n+2)
		for i := 0; i < n; i++ {
			var k int64
			if zipfs != nil {
				k = int64(zipfs[i].Uint64())
			} else {
				k = int64(rng.Intn(cfg.DimRows[i]))
			}
			row = append(row, datum.NewInt(k))
		}
		row = append(row, datum.NewInt(int64(1+rng.Intn(20))), datum.NewFloat(float64(rng.Intn(100000))/100))
		if err := ft.Insert(row); err != nil {
			panic(err)
		}
	}
	return db
}

// ChainConfig sizes a chain-join schema R1 -> R2 -> ... -> Rn.
type ChainConfig struct {
	Tables  int
	RowsPer []int // rows per table; defaults to 1000 each
	Seed    int64
}

// Chain builds n tables r1..rn where r_i(pk, fk, payload) and r_i.fk
// references r_{i+1}.pk, producing a chain query graph.
func Chain(cfg ChainConfig) *DB {
	if cfg.Tables == 0 {
		cfg.Tables = 4
	}
	db := NewDB()
	rng := rand.New(rand.NewSource(cfg.Seed + 29))
	rows := func(i int) int {
		if i < len(cfg.RowsPer) {
			return cfg.RowsPer[i]
		}
		return 1000
	}
	for i := 0; i < cfg.Tables; i++ {
		t := &catalog.Table{
			Name: fmt.Sprintf("r%d", i+1),
			Cols: []catalog.Column{
				{Name: "pk", Kind: datum.KindInt, NotNull: true},
				{Name: "fk", Kind: datum.KindInt},
				{Name: "payload", Kind: datum.KindInt},
			},
			PrimaryKey: []int{0},
			Indexes: []*catalog.Index{
				{Name: fmt.Sprintf("r%d_pk", i+1), Cols: []int{0}, Unique: true, Clustered: true},
				{Name: fmt.Sprintf("r%d_fk", i+1), Cols: []int{1}},
			},
		}
		st := db.MustAddTable(t)
		nextRows := rows(i + 1)
		if i == cfg.Tables-1 {
			nextRows = 1
		}
		for r := 0; r < rows(i); r++ {
			if err := st.Insert(datum.Row{
				datum.NewInt(int64(r)),
				datum.NewInt(int64(rng.Intn(nextRows))),
				datum.NewInt(int64(rng.Intn(1000))),
			}); err != nil {
				panic(err)
			}
		}
	}
	return db
}

// ChainQuery returns the SQL text joining the chain's n tables.
func ChainQuery(n int) string {
	q := "SELECT r1.payload FROM "
	for i := 1; i <= n; i++ {
		if i > 1 {
			q += ", "
		}
		q += fmt.Sprintf("r%d", i)
	}
	q += " WHERE "
	for i := 1; i < n; i++ {
		if i > 1 {
			q += " AND "
		}
		q += fmt.Sprintf("r%d.fk = r%d.pk", i, i+1)
	}
	return q
}

// StarQuery returns the SQL joining the fact table with n dimensions,
// filtering each dimension to filtFrac of its rows via filt < k.
func StarQuery(n int, filtMax int) string {
	q := "SELECT "
	for i := 1; i <= n; i++ {
		if i > 1 {
			q += ", "
		}
		q += fmt.Sprintf("dim%d.attr", i)
	}
	q += ", SUM(sales.amount) FROM sales"
	for i := 1; i <= n; i++ {
		q += fmt.Sprintf(", dim%d", i)
	}
	q += " WHERE "
	for i := 1; i <= n; i++ {
		if i > 1 {
			q += " AND "
		}
		q += fmt.Sprintf("sales.k%d = dim%d.k", i, i)
	}
	if filtMax > 0 {
		for i := 1; i <= n; i++ {
			q += fmt.Sprintf(" AND dim%d.filt < %d", i, filtMax)
		}
	}
	q += " GROUP BY "
	for i := 1; i <= n; i++ {
		if i > 1 {
			q += ", "
		}
		q += fmt.Sprintf("dim%d.attr", i)
	}
	return q
}
