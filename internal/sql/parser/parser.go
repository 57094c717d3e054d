// Package parser implements a recursive-descent parser for the SQL
// superset accepted by the simulated servers. Dialect restrictions
// (unsupported functions, types, or syntax gates) are enforced after
// parsing by the dialect layer, so the parser itself accepts the union of
// the four dialects.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/lexer"
	"divsql/internal/sql/types"
)

// SyntaxError reports a parse failure.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at offset %d: %s", e.Pos, e.Msg)
}

// Parser consumes a token stream.
type Parser struct {
	toks []lexer.Token
	pos  int
	// qmarks counts ? placeholders seen so far: each is assigned the next
	// 1-based ordinal, the database/sql convention. $n placeholders name
	// their ordinal explicitly and do not advance the counter.
	qmarks int
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// consumed).
func Parse(src string) (ast.Statement, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(lexer.TokSemicolon, "")
	if !p.at(lexer.TokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	return st, nil
}

// ParseScript parses a semicolon-separated script into statements.
func ParseScript(src string) ([]ast.Statement, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	var stmts []ast.Statement
	for {
		for p.accept(lexer.TokSemicolon, "") {
		}
		if p.at(lexer.TokEOF, "") {
			return stmts, nil
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, st)
		if !p.accept(lexer.TokSemicolon, "") && !p.at(lexer.TokEOF, "") {
			return nil, p.errf("expected ';' between statements, got %q", p.cur().Text)
		}
	}
}

// SplitScript splits a script into individual statement texts using the
// lexer (so semicolons inside string literals do not split). Empty
// statements are dropped.
func SplitScript(src string) ([]string, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	var out []string
	start := 0
	for _, t := range toks {
		switch t.Kind {
		case lexer.TokSemicolon:
			piece := strings.TrimSpace(src[start:t.Pos])
			if piece != "" {
				out = append(out, piece)
			}
			start = t.Pos + 1
		case lexer.TokEOF:
			piece := strings.TrimSpace(src[start:])
			if piece != "" {
				out = append(out, piece)
			}
		}
	}
	return out, nil
}

func (p *Parser) cur() lexer.Token { return p.toks[p.pos] }

func (p *Parser) at(k lexer.TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == k && (text == "" || t.Text == text)
}

func (p *Parser) atKw(kw string) bool { return p.at(lexer.TokKeyword, kw) }

func (p *Parser) accept(k lexer.TokenKind, text string) bool {
	if p.at(k, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) acceptKw(kw string) bool { return p.accept(lexer.TokKeyword, kw) }

func (p *Parser) expect(k lexer.TokenKind, text string) (lexer.Token, error) {
	t := p.cur()
	if !p.at(k, text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", k)
		}
		return t, p.errf("expected %s, got %q", want, t.Text)
	}
	p.pos++
	return t, nil
}

func (p *Parser) expectKw(kw string) error {
	_, err := p.expect(lexer.TokKeyword, kw)
	return err
}

func (p *Parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// ident accepts an identifier or a non-reserved keyword used as a name.
func (p *Parser) ident() (string, error) {
	t := p.cur()
	if t.Kind == lexer.TokIdent {
		p.pos++
		return t.Text, nil
	}
	return "", p.errf("expected identifier, got %q", t.Text)
}

func (p *Parser) parseStatement() (ast.Statement, error) {
	switch {
	case p.atKw("SELECT"):
		return p.parseSelect()
	case p.atKw("INSERT"):
		return p.parseInsert()
	case p.atKw("UPDATE"):
		return p.parseUpdate()
	case p.atKw("DELETE"):
		return p.parseDelete()
	case p.atKw("CREATE"):
		return p.parseCreate()
	case p.atKw("DROP"):
		return p.parseDrop()
	case p.atKw("BEGIN"):
		p.pos++
		p.acceptKw("WORK")
		p.acceptKw("TRANSACTION")
		return &ast.Begin{}, nil
	case p.atKw("COMMIT"):
		p.pos++
		p.acceptKw("WORK")
		p.acceptKw("TRANSACTION")
		return &ast.Commit{}, nil
	case p.atKw("ROLLBACK"):
		p.pos++
		p.acceptKw("WORK")
		p.acceptKw("TRANSACTION")
		return &ast.Rollback{}, nil
	case p.atKw("SET"):
		return p.parseSetTransaction()
	default:
		return nil, p.errf("expected statement, got %q", p.cur().Text)
	}
}

// parseSetTransaction parses SET TRANSACTION ISOLATION LEVEL <level>.
// The level words are not reserved — they remain usable as identifiers
// elsewhere — so they arrive as plain identifiers and are matched
// case-insensitively here.
func (p *Parser) parseSetTransaction() (ast.Statement, error) {
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TRANSACTION"); err != nil {
		return nil, err
	}
	if err := p.expectIdentWord("ISOLATION"); err != nil {
		return nil, err
	}
	if err := p.expectIdentWord("LEVEL"); err != nil {
		return nil, err
	}
	var lvl string
	switch {
	case p.acceptIdentWord("READ"):
		switch {
		case p.acceptIdentWord("UNCOMMITTED"):
			lvl = "READ UNCOMMITTED"
		case p.acceptIdentWord("COMMITTED"):
			lvl = "READ COMMITTED"
		default:
			return nil, p.errf("expected COMMITTED or UNCOMMITTED, got %q", p.cur().Text)
		}
	case p.acceptIdentWord("REPEATABLE"):
		if err := p.expectIdentWord("READ"); err != nil {
			return nil, err
		}
		lvl = "REPEATABLE READ"
	case p.acceptIdentWord("SERIALIZABLE"):
		lvl = "SERIALIZABLE"
	case p.acceptIdentWord("SNAPSHOT"):
		lvl = "SNAPSHOT"
	default:
		return nil, p.errf("expected isolation level, got %q", p.cur().Text)
	}
	return &ast.SetTxn{Level: lvl}, nil
}

// acceptIdentWord consumes an identifier equal to word ignoring case.
func (p *Parser) acceptIdentWord(word string) bool {
	t := p.cur()
	if t.Kind == lexer.TokIdent && strings.EqualFold(t.Text, word) {
		p.pos++
		return true
	}
	return false
}

// expectIdentWord requires an identifier equal to word ignoring case.
func (p *Parser) expectIdentWord(word string) error {
	if !p.acceptIdentWord(word) {
		return p.errf("expected %s, got %q", word, p.cur().Text)
	}
	return nil
}

// ---------------------------------------------------------------------------
// DDL

func (p *Parser) parseCreate() (ast.Statement, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	unique := p.acceptKw("UNIQUE")
	clustered := p.acceptKw("CLUSTERED")
	switch {
	case p.atKw("TABLE"):
		if unique || clustered {
			return nil, p.errf("unexpected modifier before TABLE")
		}
		return p.parseCreateTable()
	case p.atKw("VIEW"):
		if unique || clustered {
			return nil, p.errf("unexpected modifier before VIEW")
		}
		return p.parseCreateView()
	case p.atKw("INDEX"):
		return p.parseCreateIndex(unique, clustered)
	case p.atKw("SEQUENCE") || p.atKw("GENERATOR"):
		p.pos++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		seq := &ast.CreateSequence{Name: name}
		if p.acceptKw("START") {
			if err := p.expectKw("WITH"); err != nil {
				return nil, err
			}
			n, err := p.expect(lexer.TokNumber, "")
			if err != nil {
				return nil, err
			}
			v, err := strconv.ParseInt(n.Text, 10, 64)
			if err != nil {
				return nil, p.errf("invalid sequence start %q", n.Text)
			}
			seq.Start = v
		}
		return seq, nil
	default:
		return nil, p.errf("expected TABLE, VIEW, INDEX or SEQUENCE after CREATE")
	}
}

func (p *Parser) parseCreateTable() (ast.Statement, error) {
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.TokLParen, ""); err != nil {
		return nil, err
	}
	ct := &ast.CreateTable{Name: name}
	for {
		switch {
		case p.atKw("PRIMARY") || p.atKw("UNIQUE") || p.atKw("CHECK") || p.atKw("CONSTRAINT"):
			tc, err := p.parseTableConstraint()
			if err != nil {
				return nil, err
			}
			ct.Constraints = append(ct.Constraints, tc)
		default:
			cd, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, cd)
		}
		if p.accept(lexer.TokComma, "") {
			continue
		}
		if _, err := p.expect(lexer.TokRParen, ""); err != nil {
			return nil, err
		}
		return ct, nil
	}
}

func (p *Parser) parseTableConstraint() (ast.TableConstraint, error) {
	var tc ast.TableConstraint
	if p.acceptKw("CONSTRAINT") {
		name, err := p.ident()
		if err != nil {
			return tc, err
		}
		tc.Name = name
	}
	switch {
	case p.acceptKw("PRIMARY"):
		if err := p.expectKw("KEY"); err != nil {
			return tc, err
		}
		cols, err := p.parseNameList()
		if err != nil {
			return tc, err
		}
		tc.PrimaryKey = cols
	case p.acceptKw("UNIQUE"):
		cols, err := p.parseNameList()
		if err != nil {
			return tc, err
		}
		tc.Unique = cols
	case p.acceptKw("CHECK"):
		if _, err := p.expect(lexer.TokLParen, ""); err != nil {
			return tc, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return tc, err
		}
		if _, err := p.expect(lexer.TokRParen, ""); err != nil {
			return tc, err
		}
		tc.Check = e
	default:
		return tc, p.errf("expected PRIMARY KEY, UNIQUE or CHECK")
	}
	return tc, nil
}

func (p *Parser) parseNameList() ([]string, error) {
	if _, err := p.expect(lexer.TokLParen, ""); err != nil {
		return nil, err
	}
	var cols []string
	for {
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, n)
		if p.accept(lexer.TokComma, "") {
			continue
		}
		if _, err := p.expect(lexer.TokRParen, ""); err != nil {
			return nil, err
		}
		return cols, nil
	}
}

func (p *Parser) parseColumnDef() (ast.ColumnDef, error) {
	var cd ast.ColumnDef
	name, err := p.ident()
	if err != nil {
		return cd, err
	}
	cd.Name = name
	tn, err := p.parseTypeName()
	if err != nil {
		return cd, err
	}
	cd.Type = tn
	for {
		switch {
		case p.acceptKw("DEFAULT"):
			e, err := p.parseExpr()
			if err != nil {
				return cd, err
			}
			cd.Default = e
		case p.acceptKw("NOT"):
			if err := p.expectKw("NULL"); err != nil {
				return cd, err
			}
			cd.NotNull = true
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return cd, err
			}
			cd.PrimaryKey = true
		case p.acceptKw("UNIQUE"):
			cd.Unique = true
		case p.acceptKw("CHECK"):
			if _, err := p.expect(lexer.TokLParen, ""); err != nil {
				return cd, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return cd, err
			}
			if _, err := p.expect(lexer.TokRParen, ""); err != nil {
				return cd, err
			}
			cd.Check = e
		default:
			return cd, nil
		}
	}
}

func (p *Parser) parseTypeName() (ast.TypeName, error) {
	var tn ast.TypeName
	n, err := p.ident()
	if err != nil {
		return tn, err
	}
	tn.Name = strings.ToUpper(n)
	// Multi-word types: DOUBLE PRECISION.
	if tn.Name == "DOUBLE" && p.at(lexer.TokIdent, "") && strings.EqualFold(p.cur().Text, "PRECISION") {
		p.pos++
		tn.Name = "DOUBLE PRECISION"
	}
	if p.accept(lexer.TokLParen, "") {
		for {
			t, err := p.expect(lexer.TokNumber, "")
			if err != nil {
				return tn, err
			}
			v, err := strconv.Atoi(t.Text)
			if err != nil {
				return tn, p.errf("invalid type argument %q", t.Text)
			}
			tn.Args = append(tn.Args, v)
			if p.accept(lexer.TokComma, "") {
				continue
			}
			if _, err := p.expect(lexer.TokRParen, ""); err != nil {
				return tn, err
			}
			break
		}
	}
	return tn, nil
}

func (p *Parser) parseCreateView() (ast.Statement, error) {
	if err := p.expectKw("VIEW"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	cv := &ast.CreateView{Name: name}
	if p.at(lexer.TokLParen, "") {
		cols, err := p.parseNameList()
		if err != nil {
			return nil, err
		}
		cv.Columns = cols
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	cv.Select = sel
	return cv, nil
}

func (p *Parser) parseCreateIndex(unique, clustered bool) (ast.Statement, error) {
	if err := p.expectKw("INDEX"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	cols, err := p.parseNameList()
	if err != nil {
		return nil, err
	}
	return &ast.CreateIndex{Name: name, Table: table, Columns: cols, Unique: unique, Clustered: clustered}, nil
}

func (p *Parser) parseDrop() (ast.Statement, error) {
	if err := p.expectKw("DROP"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKw("TABLE"):
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.DropTable{Name: n}, nil
	case p.acceptKw("VIEW"):
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.DropView{Name: n}, nil
	case p.acceptKw("INDEX"):
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.DropIndex{Name: n}, nil
	case p.acceptKw("SEQUENCE"), p.acceptKw("GENERATOR"):
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.DropSequence{Name: n}, nil
	default:
		return nil, p.errf("expected TABLE, VIEW, INDEX or SEQUENCE after DROP")
	}
}

// ---------------------------------------------------------------------------
// DML

func (p *Parser) parseInsert() (ast.Statement, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &ast.Insert{Table: table}
	if p.at(lexer.TokLParen, "") {
		// Could be a column list or (rare) a VALUES-less insert; we only
		// support a column list here.
		cols, err := p.parseNameList()
		if err != nil {
			return nil, err
		}
		ins.Columns = cols
	}
	switch {
	case p.acceptKw("VALUES"):
		for {
			if _, err := p.expect(lexer.TokLParen, ""); err != nil {
				return nil, err
			}
			var row []ast.Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.accept(lexer.TokComma, "") {
					continue
				}
				break
			}
			if _, err := p.expect(lexer.TokRParen, ""); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if p.accept(lexer.TokComma, "") {
				continue
			}
			return ins, nil
		}
	case p.atKw("SELECT"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Select = sel
		return ins, nil
	default:
		return nil, p.errf("expected VALUES or SELECT in INSERT")
	}
}

func (p *Parser) parseUpdate() (ast.Statement, error) {
	if err := p.expectKw("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	up := &ast.Update{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.TokOp, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Sets = append(up.Sets, ast.SetClause{Column: col, Value: e})
		if p.accept(lexer.TokComma, "") {
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = e
	}
	return up, nil
}

func (p *Parser) parseDelete() (ast.Statement, error) {
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &ast.Delete{Table: table}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

// ---------------------------------------------------------------------------
// SELECT

func (p *Parser) parseSelect() (*ast.Select, error) {
	first, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	cur := first
	for p.acceptKw("UNION") {
		all := p.acceptKw("ALL")
		next, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		cur.Union = next
		cur.UnionAll = all
		cur = next
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := ast.OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			first.OrderBy = append(first.OrderBy, item)
			if p.accept(lexer.TokComma, "") {
				continue
			}
			break
		}
	}
	switch {
	case p.acceptKw("LIMIT"):
		n, err := p.parseLimitCount()
		if err != nil {
			return nil, err
		}
		first.Limit, first.LimitSyn = n, ast.LimitLimit
	case p.acceptKw("ROWS"):
		n, err := p.parseLimitCount()
		if err != nil {
			return nil, err
		}
		first.Limit, first.LimitSyn = n, ast.LimitRows
	}
	return first, nil
}

func (p *Parser) parseLimitCount() (int64, error) {
	t, err := p.expect(lexer.TokNumber, "")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, p.errf("invalid row count %q", t.Text)
	}
	return v, nil
}

func (p *Parser) parseSelectCore() (*ast.Select, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &ast.Select{}
	if p.acceptKw("DISTINCT") {
		s.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	if p.acceptKw("TOP") {
		n, err := p.parseLimitCount()
		if err != nil {
			return nil, err
		}
		s.Limit, s.LimitSyn = n, ast.LimitTop
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if p.accept(lexer.TokComma, "") {
			continue
		}
		break
	}
	if p.acceptKw("FROM") {
		for {
			fi, err := p.parseFromItem()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, fi)
			if p.accept(lexer.TokComma, "") {
				continue
			}
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if p.accept(lexer.TokComma, "") {
				continue
			}
			break
		}
	}
	if p.acceptKw("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	return s, nil
}

func (p *Parser) parseSelectItem() (ast.SelectItem, error) {
	var item ast.SelectItem
	if p.accept(lexer.TokStar, "") {
		item.Star = true
		return item, nil
	}
	// tbl.* form: identifier '.' '*'
	if p.cur().Kind == lexer.TokIdent &&
		p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == lexer.TokDot &&
		p.toks[p.pos+2].Kind == lexer.TokStar {
		item.Star = true
		item.StarTable = p.cur().Text
		p.pos += 3
		return item, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return item, err
	}
	item.Expr = e
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return item, err
		}
		item.Alias = a
	} else if p.cur().Kind == lexer.TokIdent {
		item.Alias = p.cur().Text
		p.pos++
	}
	return item, nil
}

func (p *Parser) parseFromItem() (ast.FromItem, error) {
	var fi ast.FromItem
	tr, err := p.parseTableRef()
	if err != nil {
		return fi, err
	}
	fi.Table = tr
	for {
		jt, ok := p.acceptJoinKeyword()
		if !ok {
			return fi, nil
		}
		right, err := p.parseTableRef()
		if err != nil {
			return fi, err
		}
		j := ast.Join{Type: jt, Right: right}
		if jt != ast.JoinCross {
			if err := p.expectKw("ON"); err != nil {
				return fi, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return fi, err
			}
			j.On = on
		}
		fi.Joins = append(fi.Joins, j)
	}
}

func (p *Parser) acceptJoinKeyword() (ast.JoinType, bool) {
	switch {
	case p.acceptKw("JOIN"):
		return ast.JoinInner, true
	case p.atKw("INNER"):
		p.pos++
		if !p.acceptKw("JOIN") {
			p.pos--
			return 0, false
		}
		return ast.JoinInner, true
	case p.atKw("LEFT"), p.atKw("RIGHT"), p.atKw("FULL"):
		kw := p.cur().Text
		p.pos++
		p.acceptKw("OUTER")
		if !p.acceptKw("JOIN") {
			// Not a join clause after all (shouldn't happen in valid SQL).
			p.pos--
			return 0, false
		}
		switch kw {
		case "LEFT":
			return ast.JoinLeft, true
		case "RIGHT":
			return ast.JoinRight, true
		default:
			return ast.JoinFull, true
		}
	case p.atKw("CROSS"):
		p.pos++
		if !p.acceptKw("JOIN") {
			p.pos--
			return 0, false
		}
		return ast.JoinCross, true
	default:
		return 0, false
	}
}

func (p *Parser) parseTableRef() (ast.TableRef, error) {
	var tr ast.TableRef
	if p.accept(lexer.TokLParen, "") {
		sel, err := p.parseSelect()
		if err != nil {
			return tr, err
		}
		if _, err := p.expect(lexer.TokRParen, ""); err != nil {
			return tr, err
		}
		tr.Subquery = sel
	} else {
		n, err := p.ident()
		if err != nil {
			return tr, err
		}
		tr.Name = n
	}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return tr, err
		}
		tr.Alias = a
	} else if p.cur().Kind == lexer.TokIdent {
		tr.Alias = p.cur().Text
		p.pos++
	}
	return tr, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *Parser) parseExpr() (ast.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (ast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: ast.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (ast.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKw("AND") {
		p.pos++
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: ast.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (ast.Expr, error) {
	if p.atKw("NOT") && !p.nextIsKw("EXISTS") {
		p.pos++
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) nextIsKw(kw string) bool {
	return p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].Kind == lexer.TokKeyword &&
		p.toks[p.pos+1].Text == kw
}

func (p *Parser) parseComparison() (ast.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(lexer.TokOp, "="):
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: ast.OpEq, L: l, R: r}
		case p.at(lexer.TokOp, "<>"):
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: ast.OpNe, L: l, R: r}
		case p.at(lexer.TokOp, "<"):
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: ast.OpLt, L: l, R: r}
		case p.at(lexer.TokOp, "<="):
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: ast.OpLe, L: l, R: r}
		case p.at(lexer.TokOp, ">"):
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: ast.OpGt, L: l, R: r}
		case p.at(lexer.TokOp, ">="):
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: ast.OpGe, L: l, R: r}
		case p.atKw("IS"):
			p.pos++
			not := p.acceptKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			l = &ast.IsNull{X: l, Not: not}
		case p.atKw("BETWEEN"):
			p.pos++
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.Between{X: l, Lo: lo, Hi: hi}
		case p.atKw("LIKE"):
			p.pos++
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.Like{X: l, Pattern: pat}
		case p.atKw("IN"):
			p.pos++
			in, err := p.parseInTail(l, false)
			if err != nil {
				return nil, err
			}
			l = in
		case p.atKw("NOT"):
			// NOT IN / NOT BETWEEN / NOT LIKE
			save := p.pos
			p.pos++
			switch {
			case p.acceptKw("IN"):
				in, err := p.parseInTail(l, true)
				if err != nil {
					return nil, err
				}
				l = in
			case p.acceptKw("BETWEEN"):
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expectKw("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &ast.Between{X: l, Not: true, Lo: lo, Hi: hi}
			case p.acceptKw("LIKE"):
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &ast.Like{X: l, Not: true, Pattern: pat}
			default:
				p.pos = save
				return l, nil
			}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseInTail(l ast.Expr, not bool) (ast.Expr, error) {
	if _, err := p.expect(lexer.TokLParen, ""); err != nil {
		return nil, err
	}
	in := &ast.In{X: l, Not: not}
	// Past any opening parentheses, SELECT makes it a subquery, possibly
	// parenthesized and possibly a UNION of parenthesized selects:
	// ((SELECT ...) UNION (SELECT ...)). Anything else is a list whose
	// first value happens to be parenthesized.
	first := p.pos
	for p.toks[first].Kind == lexer.TokLParen {
		first++
	}
	if t := p.toks[first]; t.Kind == lexer.TokKeyword && t.Text == "SELECT" {
		sel, err := p.parseParenableSelect()
		if err != nil {
			return nil, err
		}
		in.Select = sel
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if p.accept(lexer.TokComma, "") {
				continue
			}
			break
		}
	}
	if _, err := p.expect(lexer.TokRParen, ""); err != nil {
		return nil, err
	}
	return in, nil
}

// parseParenableSelect parses SELECT ... or (SELECT ...) [UNION (SELECT ...)]...
// This supports the parenthesized-UNION style that appears in the paper's
// bug scripts.
func (p *Parser) parseParenableSelect() (*ast.Select, error) {
	if p.atKw("SELECT") {
		return p.parseSelect()
	}
	if _, err := p.expect(lexer.TokLParen, ""); err != nil {
		return nil, err
	}
	first, err := p.parseParenableSelect()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.TokRParen, ""); err != nil {
		return nil, err
	}
	cur := first
	for cur.Union != nil {
		cur = cur.Union
	}
	for p.acceptKw("UNION") {
		all := p.acceptKw("ALL")
		next, err := p.parseParenableSelect()
		if err != nil {
			return nil, err
		}
		cur.Union = next
		cur.UnionAll = all
		for cur.Union != nil {
			cur = cur.Union
		}
	}
	return first, nil
}

func (p *Parser) parseAdditive() (ast.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(lexer.TokOp, "+"):
			p.pos++
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: ast.OpAdd, L: l, R: r}
		case p.at(lexer.TokOp, "-"):
			p.pos++
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: ast.OpSub, L: l, R: r}
		case p.at(lexer.TokOp, "||"):
			p.pos++
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: ast.OpConcat, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseMultiplicative() (ast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(lexer.TokStar, ""):
			p.pos++
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: ast.OpMul, L: l, R: r}
		case p.at(lexer.TokOp, "/"):
			p.pos++
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: ast.OpDiv, L: l, R: r}
		case p.at(lexer.TokOp, "%"):
			p.pos++
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: ast.OpMod, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseUnary() (ast.Expr, error) {
	switch {
	case p.at(lexer.TokOp, "-"):
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: "-", X: x}, nil
	case p.at(lexer.TokOp, "+"):
		p.pos++
		return p.parseUnary()
	default:
		return p.parsePrimary()
	}
}

func (p *Parser) parsePrimary() (ast.Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == lexer.TokNumber:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("invalid number %q", t.Text)
			}
			return &ast.Literal{Val: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, p.errf("invalid number %q", t.Text)
			}
			return &ast.Literal{Val: types.NewFloat(f)}, nil
		}
		return &ast.Literal{Val: types.NewInt(i)}, nil
	case t.Kind == lexer.TokString:
		p.pos++
		return &ast.Literal{Val: types.NewString(t.Text)}, nil
	case t.Kind == lexer.TokParam:
		p.pos++
		if t.Text == "?" {
			p.qmarks++
			return &ast.Param{N: p.qmarks}, nil
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 1 {
			return nil, p.errf("invalid parameter ordinal $%s", t.Text)
		}
		return &ast.Param{N: n}, nil
	case t.Kind == lexer.TokKeyword && t.Text == "NULL":
		p.pos++
		return &ast.Literal{Val: types.Null()}, nil
	case t.Kind == lexer.TokKeyword && t.Text == "TRUE":
		p.pos++
		return &ast.Literal{Val: types.NewBool(true)}, nil
	case t.Kind == lexer.TokKeyword && t.Text == "FALSE":
		p.pos++
		return &ast.Literal{Val: types.NewBool(false)}, nil
	case t.Kind == lexer.TokKeyword && t.Text == "CASE":
		return p.parseCase()
	case t.Kind == lexer.TokKeyword && t.Text == "CAST":
		return p.parseCast()
	case t.Kind == lexer.TokKeyword && t.Text == "EXISTS":
		p.pos++
		if _, err := p.expect(lexer.TokLParen, ""); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.TokRParen, ""); err != nil {
			return nil, err
		}
		return &ast.Exists{Select: sel}, nil
	case t.Kind == lexer.TokKeyword && t.Text == "NOT":
		// NOT EXISTS at primary level.
		if p.nextIsKw("EXISTS") {
			p.pos += 2
			if _, err := p.expect(lexer.TokLParen, ""); err != nil {
				return nil, err
			}
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.TokRParen, ""); err != nil {
				return nil, err
			}
			return &ast.Exists{Not: true, Select: sel}, nil
		}
		return nil, p.errf("unexpected NOT")
	case t.Kind == lexer.TokLParen:
		p.pos++
		if p.atKw("SELECT") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.TokRParen, ""); err != nil {
				return nil, err
			}
			return &ast.Subquery{Select: sel}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.TokRParen, ""); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == lexer.TokIdent:
		name := t.Text
		p.pos++
		if p.at(lexer.TokLParen, "") {
			return p.parseFuncCall(name)
		}
		if p.accept(lexer.TokDot, "") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ast.ColumnRef{Table: name, Column: col}, nil
		}
		return &ast.ColumnRef{Column: name}, nil
	default:
		return nil, p.errf("unexpected token %q in expression", t.Text)
	}
}

func (p *Parser) parseFuncCall(name string) (ast.Expr, error) {
	if _, err := p.expect(lexer.TokLParen, ""); err != nil {
		return nil, err
	}
	fc := &ast.FuncCall{Name: strings.ToUpper(name)}
	if p.accept(lexer.TokStar, "") {
		fc.Star = true
		if _, err := p.expect(lexer.TokRParen, ""); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.accept(lexer.TokRParen, "") {
		return fc, nil
	}
	if p.acceptKw("DISTINCT") {
		fc.Distinct = true
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if p.accept(lexer.TokComma, "") {
			continue
		}
		break
	}
	if _, err := p.expect(lexer.TokRParen, ""); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *Parser) parseCase() (ast.Expr, error) {
	if err := p.expectKw("CASE"); err != nil {
		return nil, err
	}
	c := &ast.Case{}
	if !p.atKw("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, ast.WhenClause{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseCast() (ast.Expr, error) {
	if err := p.expectKw("CAST"); err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.TokLParen, ""); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	tn, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.TokRParen, ""); err != nil {
		return nil, err
	}
	return &ast.Cast{X: e, To: tn}, nil
}
