// Package tpcc implements the TPC-C-like workload the paper uses for
// statistical testing (Section 7: "We have run a few million queries
// with various loads including experiments based on the TPC-C
// benchmark"). The workload is restricted to the SQL subset common to
// all four simulated dialects — the portability constraint Section 2.1
// describes for diverse replication — so one statement stream can drive
// a single server, a non-diverse replication group, or the diverse
// middleware through the shared core.Executor interface.
package tpcc

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/sql/types"
)

// Config sizes the generated database.
type Config struct {
	Warehouses           int
	DistrictsPerWH       int
	CustomersPerDistrict int
	Items                int
	Seed                 int64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Warehouses:           2,
		DistrictsPerWH:       2,
		CustomersPerDistrict: 10,
		Items:                20,
		Seed:                 1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Warehouses <= 0 || c.DistrictsPerWH <= 0 || c.CustomersPerDistrict <= 0 || c.Items <= 0 {
		return errors.New("tpcc: all sizes must be positive")
	}
	return nil
}

// Setup creates and populates the schema through the executor. All
// column types belong to the common dialect subset (dates are stored as
// ISO strings because the four dialects disagree on date type names).
// BandColumns maps each TPC-C table to its warehouse-id column — the
// partitioning key a shard router splits the workload on. Every
// transaction profile's predicates carry the warehouse id, so a sharded
// deployment routes each statement to one shard. ITEM is deliberately
// absent: it has no warehouse affinity and replicates to every shard.
func BandColumns() map[string]string {
	return map[string]string{
		"WAREHOUSE":  "W_ID",
		"DISTRICT":   "D_W_ID",
		"CUSTOMER":   "C_W_ID",
		"STOCK":      "S_W_ID",
		"ORDERS":     "O_W_ID",
		"ORDER_LINE": "OL_W_ID",
		"NEW_ORDER":  "NO_W_ID",
		"HISTORY":    "H_W_ID",
	}
}

func Setup(exec core.Executor, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	ddl := []string{
		`CREATE TABLE WAREHOUSE (W_ID INT PRIMARY KEY, W_NAME VARCHAR(10), W_YTD FLOAT)`,
		`CREATE TABLE DISTRICT (D_ID INT, D_W_ID INT, D_NAME VARCHAR(10), D_YTD FLOAT, D_NEXT_O_ID INT, PRIMARY KEY (D_W_ID, D_ID))`,
		`CREATE TABLE CUSTOMER (C_ID INT, C_D_ID INT, C_W_ID INT, C_NAME VARCHAR(16), C_BALANCE FLOAT, C_PAYMENT_CNT INT, PRIMARY KEY (C_W_ID, C_D_ID, C_ID))`,
		`CREATE TABLE ITEM (I_ID INT PRIMARY KEY, I_NAME VARCHAR(24), I_PRICE FLOAT)`,
		`CREATE TABLE STOCK (S_I_ID INT, S_W_ID INT, S_QUANTITY INT, S_YTD INT, PRIMARY KEY (S_W_ID, S_I_ID))`,
		`CREATE TABLE ORDERS (O_ID INT, O_D_ID INT, O_W_ID INT, O_C_ID INT, O_OL_CNT INT, O_ENTRY_D VARCHAR(10), PRIMARY KEY (O_W_ID, O_D_ID, O_ID))`,
		`CREATE TABLE ORDER_LINE (OL_O_ID INT, OL_D_ID INT, OL_W_ID INT, OL_NUMBER INT, OL_I_ID INT, OL_QUANTITY INT, OL_AMOUNT FLOAT, PRIMARY KEY (OL_W_ID, OL_D_ID, OL_O_ID, OL_NUMBER))`,
		`CREATE TABLE NEW_ORDER (NO_O_ID INT, NO_D_ID INT, NO_W_ID INT, PRIMARY KEY (NO_W_ID, NO_D_ID, NO_O_ID))`,
		`CREATE TABLE HISTORY (H_ID INT PRIMARY KEY, H_C_ID INT, H_W_ID INT, H_AMOUNT FLOAT, H_DATE VARCHAR(10))`,
	}
	for _, stmt := range ddl {
		if _, _, err := exec.Exec(stmt); err != nil {
			return fmt.Errorf("tpcc setup: %w", err)
		}
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		if err := execf(exec, "INSERT INTO WAREHOUSE VALUES (%d, 'WH%d', 0)", w, w); err != nil {
			return err
		}
		for d := 1; d <= cfg.DistrictsPerWH; d++ {
			if err := execf(exec, "INSERT INTO DISTRICT VALUES (%d, %d, 'D%d_%d', 0, 1)", d, w, w, d); err != nil {
				return err
			}
			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				if err := execf(exec, "INSERT INTO CUSTOMER VALUES (%d, %d, %d, 'cust_%d_%d_%d', 0, 0)",
					c, d, w, w, d, c); err != nil {
					return err
				}
			}
		}
		for i := 1; i <= cfg.Items; i++ {
			if err := execf(exec, "INSERT INTO STOCK VALUES (%d, %d, 100, 0)", i, w); err != nil {
				return err
			}
		}
	}
	for i := 1; i <= cfg.Items; i++ {
		// Prices are multiples of 0.25 so arithmetic stays exact in every
		// replica's float representation.
		price := float64((i%40)+1) * 0.25
		if err := execf(exec, "INSERT INTO ITEM VALUES (%d, 'item_%d', %g)", i, i, price); err != nil {
			return err
		}
	}
	return nil
}

func execf(exec core.Executor, format string, args ...any) error {
	sql := fmt.Sprintf(format, args...)
	if _, _, err := exec.Exec(sql); err != nil {
		return fmt.Errorf("tpcc: %s: %w", sql, err)
	}
	return nil
}

// TxType enumerates the transaction mix.
type TxType int

// Transaction types (approximate TPC-C mix).
const (
	TxNewOrder TxType = iota + 1
	TxPayment
	TxOrderStatus
	TxDelivery
	TxStockLevel
)

// String names the transaction type.
func (t TxType) String() string {
	switch t {
	case TxNewOrder:
		return "NewOrder"
	case TxPayment:
		return "Payment"
	case TxOrderStatus:
		return "OrderStatus"
	case TxDelivery:
		return "Delivery"
	case TxStockLevel:
		return "StockLevel"
	default:
		return "Unknown"
	}
}

// Metrics summarizes a workload run.
type Metrics struct {
	Transactions int
	Statements   int
	PerType      map[TxType]int
	Errors       int
	Divergences  int // detected replica divergences (diverse mode only)
	SimLatency   time.Duration
}

// merge folds another run's counters into m.
func (m *Metrics) merge(o Metrics) {
	m.Transactions += o.Transactions
	m.Statements += o.Statements
	m.Errors += o.Errors
	m.Divergences += o.Divergences
	m.SimLatency += o.SimLatency
	for tt, n := range o.PerType {
		m.PerType[tt] += n
	}
}

// Mix weights the transaction types (the weights need not sum to 100).
// The zero Mix is replaced by DefaultMix.
type Mix struct {
	NewOrder, Payment, OrderStatus, Delivery, StockLevel int
}

// DefaultMix approximates the standard TPC-C transaction mix.
func DefaultMix() Mix {
	return Mix{NewOrder: 45, Payment: 43, OrderStatus: 4, Delivery: 4, StockLevel: 4}
}

// ReadHeavyMix skews the mix toward the read-only transactions
// (OrderStatus, StockLevel). Read-only statements from concurrent
// terminals execute in parallel, so this is the mix where session-level
// parallelism pays off most.
func ReadHeavyMix() Mix {
	return Mix{NewOrder: 5, Payment: 5, OrderStatus: 45, Delivery: 5, StockLevel: 40}
}

func (mx Mix) total() int {
	return mx.NewOrder + mx.Payment + mx.OrderStatus + mx.Delivery + mx.StockLevel
}

// Driver issues the transaction mix against an executor.
type Driver struct {
	cfg      Config
	rng      *rand.Rand
	histSeq  int
	mix      Mix
	terminal int // 0: unpinned; >0: one-based terminal id

	// prepared selects the prepared-statement execution mode: every
	// transaction statement is a fixed template with ? placeholders,
	// prepared once per terminal session and re-executed with typed
	// arguments — the parse leaves the hot loop. Inline mode renders the
	// same templates to literal SQL (byte-identical to the historical
	// statements).
	prepared bool
	pe       core.PreparedExecutor
	cache    map[string]core.Statement
}

// SetPrepared switches the driver's execution mode (effective once the
// driver attaches to an executor that can prepare — every session can).
func (d *Driver) SetPrepared(on bool) { d.prepared = on }

// attach binds the driver to its executor's prepared path when enabled.
// Run takes a bare core.Executor, so this is the one place that asks
// whether it can also prepare.
func (d *Driver) attach(exec core.Executor) {
	d.pe, d.cache = nil, nil
	if !d.prepared {
		return
	}
	if pe, ok := exec.(core.PreparedExecutor); ok {
		d.pe = pe
		d.cache = make(map[string]core.Statement)
	}
}

// NewDriver builds a deterministic driver for the configuration.
func NewDriver(cfg Config) *Driver {
	return &Driver{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), mix: DefaultMix()}
}

// NewTerminalDriver builds the driver of one terminal of a concurrent
// run. Terminals are one-based; each is pinned to its own warehouse and
// draws HISTORY ids from a disjoint range, so terminals whose warehouses
// differ touch disjoint rows — the isolation contract of the engine's
// concurrent sessions. Terminals beyond the warehouse count wrap around
// and share a warehouse: their transactions then contend on the same
// rows (e.g. two NewOrders drawing one D_NEXT_O_ID), which surfaces as
// counted per-transaction errors, not corruption.
func NewTerminalDriver(cfg Config, mix Mix, terminal int) *Driver {
	if mix.total() <= 0 {
		mix = DefaultMix()
	}
	return &Driver{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed + int64(terminal)*7919)),
		histSeq:  (terminal - 1) * 10_000_000,
		mix:      mix,
		terminal: terminal,
	}
}

// Run executes n transactions, returning the aggregate metrics. Errors
// of individual transactions are counted, not fatal (the load keeps
// going, as in the paper's campaigns).
func (d *Driver) Run(exec core.Executor, n int) (Metrics, error) {
	d.attach(exec)
	m := Metrics{PerType: make(map[TxType]int)}
	for i := 0; i < n; i++ {
		tt := d.pickType()
		m.PerType[tt]++
		m.Transactions++
		stmts, lat, err := d.runTx(exec, tt)
		m.Statements += stmts
		m.SimLatency += lat
		if err != nil {
			m.Errors++
			var div *divergenceMarker
			if errors.As(err, &div) {
				m.Divergences++
			}
		}
	}
	return m, nil
}

// isolationStmt is the isolation level every concurrent terminal
// declares at session start. READ COMMITTED is in the acceptance set of
// all four simulated dialects, so the same stream drives a single
// server, a homogeneous group, or the diverse middleware.
const isolationStmt = "SET TRANSACTION ISOLATION LEVEL READ COMMITTED"

// ConcurrentOptions configures a multi-terminal run.
type ConcurrentOptions struct {
	// Terminals is the number of concurrent client terminals; each runs
	// in its own session.
	Terminals int
	// TxPerTerminal is the number of transactions each terminal issues.
	TxPerTerminal int
	// Mix weights the transaction types (zero value: DefaultMix).
	Mix Mix
	// Prepared runs every terminal on prepared statements: each of the
	// mix's fixed statement templates is parsed once per terminal
	// session and re-executed with typed arguments, so the per-statement
	// parse cost leaves the hot loop.
	Prepared bool
}

// RunConcurrent drives the mix from opts.Terminals concurrent terminals,
// each in its own session of the endpoint — its own transaction scope,
// which is what makes concurrent transactional terminals sound.
// Terminals are pinned to warehouses (wrapping when there are more
// terminals than warehouses), keeping writers disjoint.
func RunConcurrent(ep core.SessionExecutor, cfg Config, opts ConcurrentOptions) (Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	if opts.Terminals <= 0 {
		opts.Terminals = 1
	}
	merged := Metrics{PerType: make(map[TxType]int)}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	for term := 1; term <= opts.Terminals; term++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			sess := ep.OpenSession()
			defer func() { _ = sess.Close() }()
			// Terminals declare their isolation level up front: READ
			// COMMITTED is the level TPC-C's disjoint-writer contract
			// needs, and declaring it (rather than relying on the
			// default) keeps the workload honest about what it assumes.
			// Level support is part of the common dialect subset, so a
			// failure here is fatal rather than a counted tx error.
			if _, _, err := sess.Exec(isolationStmt); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("tpcc terminal %d: %w", term, err)
				}
				mu.Unlock()
				return
			}
			d := NewTerminalDriver(cfg, opts.Mix, term)
			d.SetPrepared(opts.Prepared)
			m, err := d.Run(sess, opts.TxPerTerminal)
			mu.Lock()
			defer mu.Unlock()
			merged.merge(m)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(term)
	}
	wg.Wait()
	return merged, firstErr
}

// divergenceMarker adapts middleware divergence errors without importing
// the middleware package (matched by substring).
type divergenceMarker struct{ err error }

func (d *divergenceMarker) Error() string { return d.err.Error() }

func (d *Driver) pickType() TxType {
	r := d.rng.Intn(d.mix.total())
	switch {
	case r < d.mix.NewOrder:
		return TxNewOrder
	case r < d.mix.NewOrder+d.mix.Payment:
		return TxPayment
	case r < d.mix.NewOrder+d.mix.Payment+d.mix.OrderStatus:
		return TxOrderStatus
	case r < d.mix.NewOrder+d.mix.Payment+d.mix.OrderStatus+d.mix.Delivery:
		return TxDelivery
	default:
		return TxStockLevel
	}
}

func (d *Driver) wh() int {
	if d.terminal > 0 {
		return 1 + (d.terminal-1)%d.cfg.Warehouses
	}
	return 1 + d.rng.Intn(d.cfg.Warehouses)
}
func (d *Driver) district() int { return 1 + d.rng.Intn(d.cfg.DistrictsPerWH) }
func (d *Driver) customer() int { return 1 + d.rng.Intn(d.cfg.CustomersPerDistrict) }
func (d *Driver) item() int     { return 1 + d.rng.Intn(d.cfg.Items) }

// runTx executes one transaction; it returns the number of statements
// submitted and the accumulated simulated latency.
func (d *Driver) runTx(exec core.Executor, tt TxType) (int, time.Duration, error) {
	switch tt {
	case TxNewOrder:
		return d.newOrder(exec)
	case TxPayment:
		return d.payment(exec)
	case TxOrderStatus:
		return d.orderStatus(exec)
	case TxDelivery:
		return d.delivery(exec)
	default:
		return d.stockLevel(exec)
	}
}

// txRun executes one transaction's statements, accumulating counters.
// Each statement is a fixed template with ? placeholders: in prepared
// mode the template is prepared once per terminal session (driver plan
// cache) and executed with typed arguments; in inline mode the template
// is rendered to literal SQL, byte-identical to the historical
// statements.
type txRun struct {
	d     *Driver
	exec  core.Executor
	stmts int
	lat   time.Duration
}

func (d *Driver) newTx(exec core.Executor) *txRun { return &txRun{d: d, exec: exec} }

// Typed argument constructors.
func vi(i int) types.Value     { return types.NewInt(int64(i)) }
func vl(i int64) types.Value   { return types.NewInt(i) }
func vf(f float64) types.Value { return types.NewFloat(f) }

func (t *txRun) do(q string, args ...types.Value) (*engine.Result, error) {
	t.stmts++
	if t.d.pe != nil {
		st, ok := t.d.cache[q]
		if !ok {
			var err error
			st, err = t.d.pe.Prepare(q)
			if err != nil {
				return nil, err
			}
			t.d.cache[q] = st
		}
		res, lat, err := st.Exec(args...)
		t.lat += lat
		return res, err
	}
	res, lat, err := t.exec.Exec(inlineSQL(q, args))
	t.lat += lat
	return res, err
}

// inlineSQL renders a template to literal SQL by substituting each ?
// with the corresponding argument's SQL literal (the templates carry no
// '?' inside string literals).
func inlineSQL(q string, args []types.Value) string {
	if len(args) == 0 {
		return q
	}
	var b strings.Builder
	b.Grow(len(q) + 8*len(args))
	ai := 0
	for i := 0; i < len(q); i++ {
		if q[i] == '?' && ai < len(args) {
			b.WriteString(args[ai].SQLLiteral())
			ai++
			continue
		}
		b.WriteByte(q[i])
	}
	return b.String()
}

// abort rolls back after a failure inside an open transaction.
func (t *txRun) abort() {
	_, _, _ = t.exec.Exec("ROLLBACK")
	t.stmts++
}

func (d *Driver) newOrder(exec core.Executor) (int, time.Duration, error) {
	t := d.newTx(exec)
	w, dist, cust := d.wh(), d.district(), d.customer()
	lines := 2 + d.rng.Intn(3)
	items := make([]int, lines)
	qtys := make([]int, lines)
	for i := range items {
		items[i] = d.item()
		qtys[i] = 1 + d.rng.Intn(5)
	}

	if _, err := t.do("BEGIN TRANSACTION"); err != nil {
		return t.stmts, t.lat, err
	}
	res, err := t.do("SELECT D_NEXT_O_ID FROM DISTRICT WHERE D_W_ID = ? AND D_ID = ?", vi(w), vi(dist))
	if err != nil || len(res.Rows) != 1 {
		t.abort()
		if err == nil {
			err = errors.New("tpcc: district not found")
		}
		return t.stmts, t.lat, err
	}
	oid := res.Rows[0][0].AsInt()
	type step struct {
		q    string
		args []types.Value
	}
	steps := []step{
		{"UPDATE DISTRICT SET D_NEXT_O_ID = ? WHERE D_W_ID = ? AND D_ID = ?",
			[]types.Value{vl(oid + 1), vi(w), vi(dist)}},
		{"INSERT INTO ORDERS VALUES (?, ?, ?, ?, ?, '2026-06-10')",
			[]types.Value{vl(oid), vi(dist), vi(w), vi(cust), vi(lines)}},
		{"INSERT INTO NEW_ORDER VALUES (?, ?, ?)",
			[]types.Value{vl(oid), vi(dist), vi(w)}},
	}
	for _, s := range steps {
		if _, err := t.do(s.q, s.args...); err != nil {
			t.abort()
			return t.stmts, t.lat, err
		}
	}
	for i := 0; i < lines; i++ {
		res, err := t.do("SELECT I_PRICE FROM ITEM WHERE I_ID = ?", vi(items[i]))
		if err != nil || len(res.Rows) != 1 {
			t.abort()
			if err == nil {
				err = errors.New("tpcc: item not found")
			}
			return t.stmts, t.lat, err
		}
		price := res.Rows[0][0].AsFloat()
		amount := price * float64(qtys[i])
		if _, err := t.do("UPDATE STOCK SET S_QUANTITY = S_QUANTITY - ?, S_YTD = S_YTD + ? WHERE S_W_ID = ? AND S_I_ID = ?",
			vi(qtys[i]), vi(qtys[i]), vi(w), vi(items[i])); err != nil {
			t.abort()
			return t.stmts, t.lat, err
		}
		if _, err := t.do("INSERT INTO ORDER_LINE VALUES (?, ?, ?, ?, ?, ?, ?)",
			vl(oid), vi(dist), vi(w), vi(i+1), vi(items[i]), vi(qtys[i]), vf(amount)); err != nil {
			t.abort()
			return t.stmts, t.lat, err
		}
	}
	_, err = t.do("COMMIT")
	return t.stmts, t.lat, err
}

func (d *Driver) payment(exec core.Executor) (int, time.Duration, error) {
	t := d.newTx(exec)
	w, dist, cust := d.wh(), d.district(), d.customer()
	amount := float64(1+d.rng.Intn(200)) * 0.25
	d.histSeq++
	if _, err := t.do("BEGIN TRANSACTION"); err != nil {
		return t.stmts, t.lat, err
	}
	type step struct {
		q    string
		args []types.Value
	}
	steps := []step{
		{"UPDATE WAREHOUSE SET W_YTD = W_YTD + ? WHERE W_ID = ?",
			[]types.Value{vf(amount), vi(w)}},
		{"UPDATE DISTRICT SET D_YTD = D_YTD + ? WHERE D_W_ID = ? AND D_ID = ?",
			[]types.Value{vf(amount), vi(w), vi(dist)}},
		{"UPDATE CUSTOMER SET C_BALANCE = C_BALANCE - ?, C_PAYMENT_CNT = C_PAYMENT_CNT + 1 WHERE C_W_ID = ? AND C_D_ID = ? AND C_ID = ?",
			[]types.Value{vf(amount), vi(w), vi(dist), vi(cust)}},
		{"INSERT INTO HISTORY VALUES (?, ?, ?, ?, '2026-06-10')",
			[]types.Value{vi(d.histSeq), vi(cust), vi(w), vf(amount)}},
	}
	for _, s := range steps {
		if _, err := t.do(s.q, s.args...); err != nil {
			t.abort()
			return t.stmts, t.lat, err
		}
	}
	_, err := t.do("COMMIT")
	return t.stmts, t.lat, err
}

func (d *Driver) orderStatus(exec core.Executor) (int, time.Duration, error) {
	t := d.newTx(exec)
	w, dist, cust := d.wh(), d.district(), d.customer()
	if _, err := t.do("SELECT C_NAME, C_BALANCE FROM CUSTOMER WHERE C_W_ID = ? AND C_D_ID = ? AND C_ID = ?",
		vi(w), vi(dist), vi(cust)); err != nil {
		return t.stmts, t.lat, err
	}
	// Most recent order of the customer (MAX instead of LIMIT: row
	// limiting is not in the common dialect subset).
	res, err := t.do("SELECT MAX(O_ID) AS LAST_O FROM ORDERS WHERE O_W_ID = ? AND O_D_ID = ? AND O_C_ID = ?",
		vi(w), vi(dist), vi(cust))
	if err != nil {
		return t.stmts, t.lat, err
	}
	if len(res.Rows) == 1 && !res.Rows[0][0].IsNull() {
		oid := res.Rows[0][0].AsInt()
		if _, err := t.do("SELECT OL_I_ID, OL_QUANTITY, OL_AMOUNT FROM ORDER_LINE WHERE OL_W_ID = ? AND OL_D_ID = ? AND OL_O_ID = ? ORDER BY OL_NUMBER",
			vi(w), vi(dist), vl(oid)); err != nil {
			return t.stmts, t.lat, err
		}
	}
	return t.stmts, t.lat, nil
}

func (d *Driver) delivery(exec core.Executor) (int, time.Duration, error) {
	t := d.newTx(exec)
	w, dist := d.wh(), d.district()
	if _, err := t.do("BEGIN TRANSACTION"); err != nil {
		return t.stmts, t.lat, err
	}
	res, err := t.do("SELECT MIN(NO_O_ID) AS OLDEST FROM NEW_ORDER WHERE NO_W_ID = ? AND NO_D_ID = ?", vi(w), vi(dist))
	if err != nil {
		t.abort()
		return t.stmts, t.lat, err
	}
	if len(res.Rows) != 1 || res.Rows[0][0].IsNull() {
		_, err = t.do("COMMIT") // nothing to deliver
		return t.stmts, t.lat, err
	}
	oid := res.Rows[0][0].AsInt()
	if _, err := t.do("DELETE FROM NEW_ORDER WHERE NO_W_ID = ? AND NO_D_ID = ? AND NO_O_ID = ?", vi(w), vi(dist), vl(oid)); err != nil {
		t.abort()
		return t.stmts, t.lat, err
	}
	res, err = t.do("SELECT O_C_ID FROM ORDERS WHERE O_W_ID = ? AND O_D_ID = ? AND O_ID = ?", vi(w), vi(dist), vl(oid))
	if err != nil || len(res.Rows) != 1 {
		t.abort()
		if err == nil {
			err = errors.New("tpcc: delivered order missing")
		}
		return t.stmts, t.lat, err
	}
	cust := res.Rows[0][0].AsInt()
	if _, err := t.do("UPDATE CUSTOMER SET C_BALANCE = C_BALANCE + (SELECT SUM(OL_AMOUNT) FROM ORDER_LINE WHERE OL_W_ID = ? AND OL_D_ID = ? AND OL_O_ID = ?) WHERE C_W_ID = ? AND C_D_ID = ? AND C_ID = ?",
		vi(w), vi(dist), vl(oid), vi(w), vi(dist), vl(cust)); err != nil {
		t.abort()
		return t.stmts, t.lat, err
	}
	_, err = t.do("COMMIT")
	return t.stmts, t.lat, err
}

func (d *Driver) stockLevel(exec core.Executor) (int, time.Duration, error) {
	t := d.newTx(exec)
	w := d.wh()
	_, err := t.do("SELECT COUNT(*) AS LOW_STOCK FROM STOCK WHERE S_W_ID = ? AND S_QUANTITY < 50", vi(w))
	return t.stmts, t.lat, err
}

// CheckConsistency verifies the workload's invariants, detecting silent
// state corruption:
//
//   - every district's D_NEXT_O_ID equals 1 + its greatest order id;
//   - every warehouse's W_YTD equals the sum of its districts' D_YTD;
//   - every order has exactly O_OL_CNT order lines.
//
// Each check runs a statement per row of an outer query on the same
// executor, so it walks a copy of the outer result.
func CheckConsistency(exec core.Executor) error {
	res, _, err := exec.Exec("SELECT D_W_ID, D_ID, D_NEXT_O_ID FROM DISTRICT ORDER BY D_W_ID, D_ID")
	if err != nil {
		return fmt.Errorf("consistency: %w", err)
	}
	for _, row := range res.Clone().Rows {
		w, dID, next := row[0].AsInt(), row[1].AsInt(), row[2].AsInt()
		mres, _, err := exec.Exec(fmt.Sprintf(
			"SELECT MAX(O_ID) AS M FROM ORDERS WHERE O_W_ID = %d AND O_D_ID = %d", w, dID))
		if err != nil {
			return err
		}
		maxO := int64(0)
		if len(mres.Rows) == 1 && !mres.Rows[0][0].IsNull() {
			maxO = mres.Rows[0][0].AsInt()
		}
		if next != maxO+1 {
			return fmt.Errorf("consistency: district (%d,%d) next=%d max(O_ID)=%d", w, dID, next, maxO)
		}
	}
	res, _, err = exec.Exec("SELECT W_ID, W_YTD FROM WAREHOUSE ORDER BY W_ID")
	if err != nil {
		return err
	}
	for _, row := range res.Clone().Rows {
		w, ytd := row[0].AsInt(), row[1].AsFloat()
		sres, _, err := exec.Exec(fmt.Sprintf("SELECT SUM(D_YTD) AS S FROM DISTRICT WHERE D_W_ID = %d", w))
		if err != nil {
			return err
		}
		sum := 0.0
		if len(sres.Rows) == 1 && !sres.Rows[0][0].IsNull() {
			sum = sres.Rows[0][0].AsFloat()
		}
		if diff := ytd - sum; diff > 0.001 || diff < -0.001 {
			return fmt.Errorf("consistency: warehouse %d W_YTD=%g sum(D_YTD)=%g", w, ytd, sum)
		}
	}
	res, _, err = exec.Exec("SELECT O_W_ID, O_D_ID, O_ID, O_OL_CNT FROM ORDERS ORDER BY O_W_ID, O_D_ID, O_ID")
	if err != nil {
		return err
	}
	for _, row := range res.Clone().Rows {
		w, dID, oid, cnt := row[0].AsInt(), row[1].AsInt(), row[2].AsInt(), row[3].AsInt()
		cres, _, err := exec.Exec(fmt.Sprintf(
			"SELECT COUNT(*) AS N FROM ORDER_LINE WHERE OL_W_ID = %d AND OL_D_ID = %d AND OL_O_ID = %d", w, dID, oid))
		if err != nil {
			return err
		}
		if got := cres.Rows[0][0].AsInt(); got != cnt {
			return fmt.Errorf("consistency: order (%d,%d,%d) has %d lines, wants %d", w, dID, oid, got, cnt)
		}
	}
	return nil
}
