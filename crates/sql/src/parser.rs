//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::lexer::{tokenize, Token};
use hive_common::dates::DateField;
use hive_common::{value, DataType, HiveError, Result, Value};

/// Parse a single SQL statement.
pub fn parse_sql(sql: &str) -> Result<Statement> {
    let mut stmts = parse_statements(sql)?;
    match stmts.len() {
        1 => Ok(stmts.remove(0)),
        0 => Err(HiveError::Parse("empty statement".into())),
        n => Err(HiveError::Parse(format!("expected one statement, got {n}"))),
    }
}

/// Parse a `;`-separated script.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    loop {
        while p.peek() == &Token::Semicolon {
            p.advance();
        }
        if p.peek() == &Token::Eof {
            break;
        }
        out.push(p.parse_statement()?);
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_at(&self, n: usize) -> &Token {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        self.pos += 1;
        t
    }

    fn error<T>(&self, msg: &str) -> Result<T> {
        Err(HiveError::Parse(format!(
            "{msg} (near token '{}')",
            self.peek()
        )))
    }

    /// Is the current token the given keyword (case-insensitive)?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    fn at_kw_at(&self, n: usize, kw: &str) -> bool {
        matches!(self.peek_at(n), Token::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    /// Consume the keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    /// Require a keyword.
    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.error(&format!("expected {kw}"))
        }
    }

    /// Consume the token if it matches.
    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    /// Require a token.
    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            self.error(&format!("expected '{t}'"))
        }
    }

    /// Parse an identifier (word that is not a reserved structural
    /// keyword, or quoted identifier).
    fn parse_ident(&mut self) -> Result<String> {
        match self.advance() {
            Token::Word(w) => Ok(w.to_ascii_lowercase()),
            Token::QuotedIdent(w) => Ok(w.to_ascii_lowercase()),
            other => Err(HiveError::Parse(format!(
                "expected identifier, found '{other}'"
            ))),
        }
    }

    fn parse_object_name(&mut self) -> Result<ObjectName> {
        let first = self.parse_ident()?;
        if self.eat(&Token::Dot) {
            let second = self.parse_ident()?;
            Ok(ObjectName {
                db: Some(first),
                name: second,
            })
        } else {
            Ok(ObjectName {
                db: None,
                name: first,
            })
        }
    }

    // ---- statements ------------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement> {
        if self.at_kw("SELECT") || self.at_kw("WITH") || self.peek() == &Token::LParen {
            return Ok(Statement::Query(self.parse_query()?));
        }
        if self.at_kw("EXPLAIN") {
            self.advance();
            return Ok(Statement::Explain(Box::new(self.parse_statement()?)));
        }
        if self.at_kw("CREATE") {
            return self.parse_create();
        }
        if self.at_kw("DROP") {
            return self.parse_drop();
        }
        if self.at_kw("INSERT") {
            return self.parse_insert();
        }
        if self.at_kw("FROM") {
            return self.parse_multi_insert();
        }
        if self.at_kw("UPDATE") {
            return self.parse_update();
        }
        if self.at_kw("DELETE") {
            return self.parse_delete();
        }
        if self.at_kw("MERGE") {
            return self.parse_merge();
        }
        if self.at_kw("USE") {
            self.advance();
            return Ok(Statement::Use(self.parse_ident()?));
        }
        if self.at_kw("ANALYZE") {
            self.advance();
            self.expect_kw("TABLE")?;
            let name = self.parse_object_name()?;
            self.expect_kw("COMPUTE")?;
            self.expect_kw("STATISTICS")?;
            return Ok(Statement::AnalyzeTable { name });
        }
        if self.at_kw("ALTER") {
            return self.parse_alter();
        }
        if self.at_kw("SHOW") {
            self.advance();
            if self.eat_kw("TABLES") {
                return Ok(Statement::ShowTables);
            }
            if self.eat_kw("COMPACTIONS") {
                return Ok(Statement::ShowCompactions);
            }
            if self.eat_kw("TRANSACTIONS") {
                return Ok(Statement::ShowTransactions);
            }
            if self.eat_kw("PARTITIONS") {
                return Ok(Statement::ShowPartitions {
                    name: self.parse_object_name()?,
                });
            }
            return self
                .error("expected TABLES, PARTITIONS, COMPACTIONS, or TRANSACTIONS after SHOW");
        }
        if self.at_kw("DESCRIBE") || self.at_kw("DESC") {
            self.advance();
            let extended = self.eat_kw("EXTENDED");
            return Ok(Statement::Describe {
                name: self.parse_object_name()?,
                extended,
            });
        }
        self.error("unrecognized statement")
    }

    fn parse_alter(&mut self) -> Result<Statement> {
        self.expect_kw("ALTER")?;
        if self.eat_kw("MATERIALIZED") {
            self.expect_kw("VIEW")?;
            let name = self.parse_object_name()?;
            self.expect_kw("REBUILD")?;
            return Ok(Statement::AlterMaterializedViewRebuild { name });
        }
        self.expect_kw("TABLE")?;
        let name = self.parse_object_name()?;
        self.expect_kw("COMPACT")?;
        let major = match self.advance() {
            Token::StringLit(s) if s.eq_ignore_ascii_case("major") => true,
            Token::StringLit(s) if s.eq_ignore_ascii_case("minor") => false,
            other => {
                return Err(HiveError::Parse(format!(
                    "expected 'major' or 'minor', found '{other}'"
                )))
            }
        };
        Ok(Statement::AlterTableCompact { name, major })
    }

    fn parse_create(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("DATABASE") || self.eat_kw("SCHEMA") {
            let if_not_exists = self.parse_if_not_exists()?;
            return Ok(Statement::CreateDatabase {
                name: self.parse_ident()?,
                if_not_exists,
            });
        }
        if self.eat_kw("MATERIALIZED") {
            self.expect_kw("VIEW")?;
            let if_not_exists = self.parse_if_not_exists()?;
            let name = self.parse_object_name()?;
            let mut stored_by = None;
            let mut properties = Vec::new();
            loop {
                if self.at_kw("STORED") {
                    self.advance();
                    self.expect_kw("BY")?;
                    stored_by = Some(self.parse_string_lit()?);
                } else if self.at_kw("TBLPROPERTIES") {
                    self.advance();
                    properties = self.parse_properties()?;
                } else {
                    break;
                }
            }
            self.expect_kw("AS")?;
            let query = self.parse_query()?;
            return Ok(Statement::CreateMaterializedView(CreateMaterializedView {
                name,
                if_not_exists,
                stored_by,
                properties,
                query,
            }));
        }
        let external = self.eat_kw("EXTERNAL");
        self.expect_kw("TABLE")?;
        let if_not_exists = self.parse_if_not_exists()?;
        let name = self.parse_object_name()?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        if self.eat(&Token::LParen) {
            // Empty column list: schema inferred from the external
            // system (STORED BY) or from a CTAS query.
            if self.eat(&Token::RParen) {
                return self.parse_create_table_tail(
                    name,
                    if_not_exists,
                    external,
                    columns,
                    constraints,
                );
            }
            loop {
                if self.at_kw("PRIMARY") {
                    self.advance();
                    self.expect_kw("KEY")?;
                    constraints.push(TableConstraintDef::PrimaryKey(self.parse_ident_list()?));
                } else if self.at_kw("FOREIGN") {
                    self.advance();
                    self.expect_kw("KEY")?;
                    let cols = self.parse_ident_list()?;
                    self.expect_kw("REFERENCES")?;
                    let ref_table = self.parse_object_name()?;
                    let ref_columns = self.parse_ident_list()?;
                    constraints.push(TableConstraintDef::ForeignKey {
                        columns: cols,
                        ref_table,
                        ref_columns,
                    });
                } else if self.at_kw("UNIQUE") {
                    self.advance();
                    constraints.push(TableConstraintDef::Unique(self.parse_ident_list()?));
                } else {
                    columns.push(self.parse_column_def()?);
                }
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        self.parse_create_table_tail(name, if_not_exists, external, columns, constraints)
    }

    fn parse_create_table_tail(
        &mut self,
        name: ObjectName,
        if_not_exists: bool,
        external: bool,
        columns: Vec<ColumnDef>,
        constraints: Vec<TableConstraintDef>,
    ) -> Result<Statement> {
        let mut partitioned_by = Vec::new();
        let mut stored_by = None;
        let mut properties = Vec::new();
        let mut as_query = None;
        loop {
            if self.at_kw("PARTITIONED") {
                self.advance();
                self.expect_kw("BY")?;
                self.expect(&Token::LParen)?;
                loop {
                    partitioned_by.push(self.parse_column_def()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            } else if self.at_kw("STORED") {
                self.advance();
                self.expect_kw("BY")?;
                stored_by = Some(self.parse_string_lit()?);
            } else if self.at_kw("TBLPROPERTIES") {
                self.advance();
                properties = self.parse_properties()?;
            } else if self.at_kw("AS") {
                self.advance();
                as_query = Some(self.parse_query()?);
                break;
            } else {
                break;
            }
        }
        Ok(Statement::CreateTable(CreateTable {
            name,
            if_not_exists,
            external,
            columns,
            constraints,
            partitioned_by,
            stored_by,
            properties,
            as_query,
        }))
    }

    fn parse_if_not_exists(&mut self) -> Result<bool> {
        if self.at_kw("IF") && self.at_kw_at(1, "NOT") {
            self.advance();
            self.advance();
            self.expect_kw("EXISTS")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn parse_drop(&mut self) -> Result<Statement> {
        self.expect_kw("DROP")?;
        if self.eat_kw("DATABASE") || self.eat_kw("SCHEMA") {
            let if_exists = self.parse_if_exists()?;
            return Ok(Statement::DropDatabase {
                name: self.parse_ident()?,
                if_exists,
            });
        }
        if self.eat_kw("MATERIALIZED") {
            self.expect_kw("VIEW")?;
            let if_exists = self.parse_if_exists()?;
            return Ok(Statement::DropMaterializedView {
                name: self.parse_object_name()?,
                if_exists,
            });
        }
        self.expect_kw("TABLE")?;
        let if_exists = self.parse_if_exists()?;
        Ok(Statement::DropTable {
            name: self.parse_object_name()?,
            if_exists,
        })
    }

    fn parse_if_exists(&mut self) -> Result<bool> {
        if self.at_kw("IF") {
            self.advance();
            self.expect_kw("EXISTS")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        let overwrite = if self.eat_kw("OVERWRITE") {
            self.expect_kw("TABLE")?;
            true
        } else {
            self.expect_kw("INTO")?;
            self.eat_kw("TABLE");
            false
        };
        let table = self.parse_object_name()?;
        let columns = if self.peek() == &Token::LParen
            && !self.at_kw_at(1, "SELECT")
            && !self.at_kw_at(1, "WITH")
        {
            Some(self.parse_ident_list()?)
        } else {
            None
        };
        let source = if self.eat_kw("VALUES") {
            let mut rows = Vec::new();
            loop {
                self.expect(&Token::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
                rows.push(row);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else {
            InsertSource::Query(self.parse_query()?)
        };
        Ok(Statement::Insert(Insert {
            table,
            columns,
            source,
            overwrite,
        }))
    }

    /// `FROM src INSERT INTO t1 SELECT ... [WHERE ...] INSERT INTO ...`
    fn parse_multi_insert(&mut self) -> Result<Statement> {
        self.expect_kw("FROM")?;
        let source = self.parse_table_primary()?;
        let mut inserts = Vec::new();
        while self.at_kw("INSERT") {
            self.advance();
            self.expect_kw("INTO")?;
            self.eat_kw("TABLE");
            let table = self.parse_object_name()?;
            let columns = if self.peek() == &Token::LParen {
                Some(self.parse_ident_list()?)
            } else {
                None
            };
            self.expect_kw("SELECT")?;
            let mut projection = Vec::new();
            loop {
                projection.push(self.parse_select_item()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            let filter = if self.eat_kw("WHERE") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            inserts.push(MultiInsertLeg {
                table,
                columns,
                projection,
                filter,
            });
        }
        if inserts.is_empty() {
            return self.error("multi-insert requires at least one INSERT leg");
        }
        Ok(Statement::MultiInsert(MultiInsert { source, inserts }))
    }

    fn parse_update(&mut self) -> Result<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.parse_object_name()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.parse_ident()?;
            self.expect(&Token::Eq)?;
            assignments.push((col, self.parse_expr()?));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            assignments,
            filter,
        }))
    }

    fn parse_delete(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.parse_object_name()?;
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(Delete { table, filter }))
    }

    fn parse_merge(&mut self) -> Result<Statement> {
        self.expect_kw("MERGE")?;
        self.expect_kw("INTO")?;
        let target = self.parse_object_name()?;
        let target_alias = self.parse_opt_alias()?;
        self.expect_kw("USING")?;
        let source = self.parse_table_primary()?;
        self.expect_kw("ON")?;
        let on = self.parse_expr()?;
        let mut when_matched_update = None;
        let mut when_matched_delete = None;
        let mut when_not_matched_insert = None;
        while self.at_kw("WHEN") {
            self.advance();
            if self.eat_kw("MATCHED") {
                let condition = if self.eat_kw("AND") {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.expect_kw("THEN")?;
                if self.eat_kw("UPDATE") {
                    self.expect_kw("SET")?;
                    let mut assignments = Vec::new();
                    loop {
                        let col = self.parse_ident()?;
                        self.expect(&Token::Eq)?;
                        assignments.push((col, self.parse_expr()?));
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    when_matched_update = Some(MergeUpdate {
                        condition,
                        assignments,
                    });
                } else if self.eat_kw("DELETE") {
                    when_matched_delete = Some(condition);
                } else {
                    return self.error("expected UPDATE or DELETE after WHEN MATCHED THEN");
                }
            } else if self.eat_kw("NOT") {
                self.expect_kw("MATCHED")?;
                self.expect_kw("THEN")?;
                self.expect_kw("INSERT")?;
                let columns = if self.peek() == &Token::LParen && !self.at_kw_at(1, "VALUES") {
                    // Peek deeper: `INSERT VALUES (...)` vs `INSERT (cols) VALUES`.
                    Some(self.parse_ident_list()?)
                } else {
                    None
                };
                self.expect_kw("VALUES")?;
                self.expect(&Token::LParen)?;
                let mut values = Vec::new();
                loop {
                    values.push(self.parse_expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
                when_not_matched_insert = Some(MergeInsert { columns, values });
            } else {
                return self.error("expected MATCHED or NOT MATCHED");
            }
        }
        Ok(Statement::Merge(Merge {
            target,
            target_alias,
            source,
            on,
            when_matched_update,
            when_matched_delete,
            when_not_matched_insert,
        }))
    }

    fn parse_ident_list(&mut self) -> Result<Vec<String>> {
        self.expect(&Token::LParen)?;
        let mut out = Vec::new();
        loop {
            out.push(self.parse_ident()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(out)
    }

    fn parse_properties(&mut self) -> Result<Vec<(String, String)>> {
        self.expect(&Token::LParen)?;
        let mut out = Vec::new();
        loop {
            let k = self.parse_string_lit()?;
            self.expect(&Token::Eq)?;
            let v = self.parse_string_lit()?;
            out.push((k, v));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(out)
    }

    fn parse_string_lit(&mut self) -> Result<String> {
        match self.advance() {
            Token::StringLit(s) => Ok(s),
            other => Err(HiveError::Parse(format!(
                "expected string literal, found '{other}'"
            ))),
        }
    }

    fn parse_column_def(&mut self) -> Result<ColumnDef> {
        let name = self.parse_ident()?;
        let data_type = self.parse_data_type()?;
        let mut not_null = false;
        if self.at_kw("NOT") && self.at_kw_at(1, "NULL") {
            self.advance();
            self.advance();
            not_null = true;
        }
        Ok(ColumnDef {
            name,
            data_type,
            not_null,
        })
    }

    fn parse_data_type(&mut self) -> Result<DataType> {
        let word = self.parse_ident()?;
        let dt = match word.as_str() {
            "int" | "integer" | "smallint" | "tinyint" => DataType::Int,
            "bigint" | "long" => DataType::BigInt,
            "double" => {
                self.eat_kw("PRECISION");
                DataType::Double
            }
            "float" | "real" => DataType::Double,
            "string" | "text" => DataType::String,
            "varchar" | "char" => {
                if self.eat(&Token::LParen) {
                    self.advance(); // length
                    self.expect(&Token::RParen)?;
                }
                DataType::String
            }
            "boolean" | "bool" => DataType::Boolean,
            "date" => DataType::Date,
            "timestamp" => DataType::Timestamp,
            "decimal" | "numeric" => {
                let (mut p, mut s) = (10, 0);
                // Out-of-range digits saturate, so they fail the check.
                let digits = |v: i128| u64::try_from(v).unwrap_or(u64::MAX);
                if self.eat(&Token::LParen) {
                    if let Token::Integer(v) = self.advance() {
                        p = digits(v);
                    } else {
                        return self.error("expected precision");
                    }
                    if self.eat(&Token::Comma) {
                        if let Token::Integer(v) = self.advance() {
                            s = digits(v);
                        } else {
                            return self.error("expected scale");
                        }
                    }
                    self.expect(&Token::RParen)?;
                }
                DataType::decimal(p, s).map_err(HiveError::Parse)?
            }
            other => {
                return Err(HiveError::Parse(format!("unknown data type '{other}'")));
            }
        };
        Ok(dt)
    }

    // ---- queries ---------------------------------------------------------

    fn parse_query(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        if self.eat_kw("WITH") {
            loop {
                let name = self.parse_ident()?;
                self.expect_kw("AS")?;
                self.expect(&Token::LParen)?;
                let q = self.parse_query()?;
                self.expect(&Token::RParen)?;
                ctes.push((name, q));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let body = self.parse_query_body()?;
        let mut order_by = Vec::new();
        if self.at_kw("ORDER") {
            self.advance();
            self.expect_kw("BY")?;
            loop {
                order_by.push(self.parse_order_item()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.advance() {
                Token::Integer(v) => Some(v as u64),
                other => {
                    return Err(HiveError::Parse(format!(
                        "expected LIMIT count, found '{other}'"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Query {
            ctes,
            body,
            order_by,
            limit,
        })
    }

    fn parse_order_item(&mut self) -> Result<OrderItem> {
        let expr = self.parse_expr()?;
        let asc = if self.eat_kw("DESC") {
            false
        } else {
            self.eat_kw("ASC");
            true
        };
        let nulls_first = if self.eat_kw("NULLS") {
            if self.eat_kw("FIRST") {
                Some(true)
            } else {
                self.expect_kw("LAST")?;
                Some(false)
            }
        } else {
            None
        };
        Ok(OrderItem {
            expr,
            asc,
            nulls_first,
        })
    }

    /// Set-operation precedence: INTERSECT binds tighter than
    /// UNION/EXCEPT; same-level operators associate left.
    fn parse_query_body(&mut self) -> Result<QueryBody> {
        let mut left = self.parse_query_body_intersect()?;
        loop {
            let op = if self.at_kw("UNION") {
                SetOperator::Union
            } else if self.at_kw("EXCEPT") || self.at_kw("MINUS") {
                SetOperator::Except
            } else {
                break;
            };
            self.advance();
            let all = self.eat_kw("ALL");
            if !all {
                self.eat_kw("DISTINCT");
            }
            let right = self.parse_query_body_intersect()?;
            left = QueryBody::SetOp {
                op,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_query_body_intersect(&mut self) -> Result<QueryBody> {
        let mut left = self.parse_query_primary()?;
        while self.at_kw("INTERSECT") {
            self.advance();
            let all = self.eat_kw("ALL");
            if !all {
                self.eat_kw("DISTINCT");
            }
            let right = self.parse_query_primary()?;
            left = QueryBody::SetOp {
                op: SetOperator::Intersect,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_query_primary(&mut self) -> Result<QueryBody> {
        if self.eat(&Token::LParen) {
            let q = self.parse_query()?;
            self.expect(&Token::RParen)?;
            // A parenthesized query with its own ORDER BY/LIMIT/CTEs must
            // stay a subquery; a bare body unwraps.
            if q.ctes.is_empty() && q.order_by.is_empty() && q.limit.is_none() {
                return Ok(q.body);
            }
            // Wrap as SELECT * FROM (q) sub.
            return Ok(QueryBody::Select(Box::new(Select {
                distinct: false,
                projection: vec![SelectItem::Wildcard],
                from: vec![TableRef::Subquery {
                    query: Box::new(q),
                    alias: "__paren".into(),
                }],
                selection: None,
                group_by: Vec::new(),
                grouping_sets: None,
                having: None,
            })));
        }
        Ok(QueryBody::Select(Box::new(self.parse_select()?)))
    }

    fn parse_select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            true
        } else {
            self.eat_kw("ALL");
            false
        };
        let mut projection = Vec::new();
        loop {
            projection.push(self.parse_select_item()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("FROM") {
            loop {
                from.push(self.parse_table_ref()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let selection = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        let mut grouping_sets = None;
        if self.at_kw("GROUP") {
            self.advance();
            self.expect_kw("BY")?;
            if self.at_kw("ROLLUP") || self.at_kw("CUBE") {
                let is_rollup = self.at_kw("ROLLUP");
                self.advance();
                self.expect(&Token::LParen)?;
                loop {
                    group_by.push(self.parse_expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
                let n = group_by.len();
                let sets = if is_rollup {
                    // (a,b,c), (a,b), (a), ()
                    (0..=n).rev().map(|k| (0..k).collect()).collect()
                } else {
                    // All subsets.
                    (0..(1usize << n))
                        .map(|mask| (0..n).filter(|i| mask >> i & 1 == 1).collect())
                        .collect()
                };
                grouping_sets = Some(sets);
            } else if self.at_kw("GROUPING") {
                self.advance();
                self.expect_kw("SETS")?;
                grouping_sets = Some(self.parse_grouping_sets(&mut group_by)?);
            } else {
                loop {
                    group_by.push(self.parse_expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                if self.at_kw("GROUPING") {
                    self.advance();
                    self.expect_kw("SETS")?;
                    grouping_sets = Some(self.parse_grouping_sets(&mut group_by)?);
                }
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            projection,
            from,
            selection,
            group_by,
            grouping_sets,
            having,
        })
    }

    fn parse_grouping_sets(&mut self, group_by: &mut Vec<Expr>) -> Result<Vec<Vec<usize>>> {
        self.expect(&Token::LParen)?;
        let mut sets = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut set = Vec::new();
            if self.peek() != &Token::RParen {
                loop {
                    let e = self.parse_expr()?;
                    let idx = match group_by.iter().position(|g| *g == e) {
                        Some(i) => i,
                        None => {
                            group_by.push(e);
                            group_by.len() - 1
                        }
                    };
                    set.push(idx);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            sets.push(set);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(sets)
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.peek() == &Token::Star {
            self.advance();
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if matches!(self.peek(), Token::Word(_))
            && self.peek_at(1) == &Token::Dot
            && self.peek_at(2) == &Token::Star
        {
            let q = self.parse_ident()?;
            self.advance(); // .
            self.advance(); // *
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.parse_ident()?)
        } else if let Token::Word(w) = self.peek() {
            // Implicit alias unless it is a structural keyword.
            if is_structural_keyword(w) {
                None
            } else {
                Some(self.parse_ident()?)
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    // ---- table references --------------------------------------------------

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.parse_table_primary()?;
        loop {
            let kind = if self.at_kw("JOIN") || self.at_kw("INNER") {
                self.eat_kw("INNER");
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.at_kw("LEFT") {
                self.advance();
                if self.eat_kw("SEMI") {
                    self.expect_kw("JOIN")?;
                    JoinKind::LeftSemi
                } else {
                    self.eat_kw("OUTER");
                    self.expect_kw("JOIN")?;
                    JoinKind::Left
                }
            } else if self.at_kw("RIGHT") {
                self.advance();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Right
            } else if self.at_kw("FULL") {
                self.advance();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Full
            } else if self.at_kw("CROSS") {
                self.advance();
                self.expect_kw("JOIN")?;
                JoinKind::Cross
            } else {
                break;
            };
            let right = self.parse_table_primary()?;
            let on = if kind != JoinKind::Cross && self.eat_kw("ON") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
        Ok(left)
    }

    fn parse_table_primary(&mut self) -> Result<TableRef> {
        if self.eat(&Token::LParen) {
            // Either a subquery or a parenthesized join tree.
            if self.at_kw("SELECT") || self.at_kw("WITH") || self.peek() == &Token::LParen {
                let q = self.parse_query()?;
                self.expect(&Token::RParen)?;
                self.eat_kw("AS");
                let alias = self.parse_ident()?;
                return Ok(TableRef::Subquery {
                    query: Box::new(q),
                    alias,
                });
            }
            let t = self.parse_table_ref()?;
            self.expect(&Token::RParen)?;
            return Ok(t);
        }
        let name = self.parse_object_name()?;
        let alias = self.parse_opt_alias()?;
        Ok(TableRef::Table { name, alias })
    }

    fn parse_opt_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.parse_ident()?));
        }
        if let Token::Word(w) = self.peek() {
            if !is_structural_keyword(w) {
                return Ok(Some(self.parse_ident()?));
            }
        }
        Ok(None)
    }

    // ---- expressions -------------------------------------------------------

    /// Public entry: lowest precedence (OR).
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            let right = self.parse_and()?;
            left = Expr::BinaryOp {
                left: Box::new(left),
                op: BinaryOp::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("AND") {
            let right = self.parse_not()?;
            left = Expr::BinaryOp {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.at_kw("NOT") && !self.at_kw_at(1, "EXISTS") {
            self.advance();
            return Ok(Expr::Not(Box::new(self.parse_not()?)));
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> Result<Expr> {
        if self.at_kw("EXISTS") || (self.at_kw("NOT") && self.at_kw_at(1, "EXISTS")) {
            let negated = self.eat_kw("NOT");
            self.expect_kw("EXISTS")?;
            self.expect(&Token::LParen)?;
            let q = self.parse_query()?;
            self.expect(&Token::RParen)?;
            return Ok(Expr::Exists {
                query: Box::new(q),
                negated,
            });
        }
        let mut left = self.parse_additive()?;
        loop {
            // IS [NOT] NULL
            if self.at_kw("IS") {
                self.advance();
                let negated = self.eat_kw("NOT");
                self.expect_kw("NULL")?;
                left = Expr::IsNull {
                    expr: Box::new(left),
                    negated,
                };
                continue;
            }
            let negated = if self.at_kw("NOT")
                && (self.at_kw_at(1, "BETWEEN")
                    || self.at_kw_at(1, "IN")
                    || self.at_kw_at(1, "LIKE"))
            {
                self.advance();
                true
            } else {
                false
            };
            if self.eat_kw("BETWEEN") {
                let low = self.parse_additive()?;
                self.expect_kw("AND")?;
                let high = self.parse_additive()?;
                left = Expr::Between {
                    expr: Box::new(left),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                };
                continue;
            }
            if self.eat_kw("IN") {
                self.expect(&Token::LParen)?;
                if self.at_kw("SELECT") || self.at_kw("WITH") {
                    let q = self.parse_query()?;
                    self.expect(&Token::RParen)?;
                    left = Expr::InSubquery {
                        expr: Box::new(left),
                        query: Box::new(q),
                        negated,
                    };
                } else {
                    let mut list = Vec::new();
                    loop {
                        list.push(self.parse_expr()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::RParen)?;
                    left = Expr::InList {
                        expr: Box::new(left),
                        list,
                        negated,
                    };
                }
                continue;
            }
            if self.eat_kw("LIKE") {
                let pattern = self.parse_additive()?;
                left = Expr::Like {
                    expr: Box::new(left),
                    pattern: Box::new(pattern),
                    negated,
                };
                continue;
            }
            if negated {
                return self.error("expected BETWEEN, IN, or LIKE after NOT");
            }
            // Comparisons.
            let op = match self.peek() {
                Token::Eq => BinaryOp::Eq,
                Token::NotEq => BinaryOp::NotEq,
                Token::Lt => BinaryOp::Lt,
                Token::LtEq => BinaryOp::LtEq,
                Token::Gt => BinaryOp::Gt,
                Token::GtEq => BinaryOp::GtEq,
                _ => break,
            };
            self.advance();
            let right = self.parse_additive()?;
            left = Expr::BinaryOp {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOp::Plus,
                Token::Minus => BinaryOp::Minus,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::BinaryOp {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOp::Multiply,
                Token::Slash => BinaryOp::Divide,
                Token::Percent => BinaryOp::Modulo,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::BinaryOp {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&Token::Minus) {
            return Ok(Expr::Negate(Box::new(self.parse_unary()?)));
        }
        if self.eat(&Token::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Token::Integer(v) => {
                self.advance();
                if v >= i32::MIN as i128 && v <= i32::MAX as i128 {
                    Ok(Expr::Literal(Value::Int(v as i32)))
                } else {
                    Ok(Expr::Literal(Value::BigInt(v as i64)))
                }
            }
            Token::Number(text) => {
                self.advance();
                if text.contains(['e', 'E']) {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| HiveError::Parse(format!("bad number {text}")))?;
                    Ok(Expr::Literal(Value::Double(v)))
                } else {
                    let scale = text
                        .split_once('.')
                        .map(|(_, f)| f.len().min(18) as u8)
                        .unwrap_or(0);
                    let unscaled = value::parse_decimal(&text, scale)
                        .ok_or_else(|| HiveError::Parse(format!("bad decimal {text}")))?;
                    Ok(Expr::Literal(Value::Decimal(unscaled, scale)))
                }
            }
            Token::StringLit(s) => {
                self.advance();
                Ok(Expr::Literal(Value::String(s)))
            }
            Token::LParen => {
                self.advance();
                if self.at_kw("SELECT") || self.at_kw("WITH") {
                    let q = self.parse_query()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(q)));
                }
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Word(w) => self.parse_word_expr(&w),
            Token::QuotedIdent(_) => {
                let name = self.parse_ident()?;
                self.parse_column_tail(name)
            }
            other => Err(HiveError::Parse(format!(
                "unexpected token '{other}' in expression"
            ))),
        }
    }

    fn parse_word_expr(&mut self, w: &str) -> Result<Expr> {
        let upper = w.to_ascii_uppercase();
        match upper.as_str() {
            "NULL" => {
                self.advance();
                Ok(Expr::Literal(Value::Null))
            }
            "TRUE" => {
                self.advance();
                Ok(Expr::Literal(Value::Boolean(true)))
            }
            "FALSE" => {
                self.advance();
                Ok(Expr::Literal(Value::Boolean(false)))
            }
            "DATE" if matches!(self.peek_at(1), Token::StringLit(_)) => {
                self.advance();
                let s = self.parse_string_lit()?;
                let d = hive_common::dates::parse_date(&s)
                    .ok_or_else(|| HiveError::Parse(format!("bad date literal '{s}'")))?;
                Ok(Expr::Literal(Value::Date(d)))
            }
            "TIMESTAMP" if matches!(self.peek_at(1), Token::StringLit(_)) => {
                self.advance();
                let s = self.parse_string_lit()?;
                let t = hive_common::dates::parse_timestamp(&s)
                    .ok_or_else(|| HiveError::Parse(format!("bad timestamp literal '{s}'")))?;
                Ok(Expr::Literal(Value::Timestamp(t)))
            }
            "INTERVAL" => {
                self.advance();
                let n = match self.advance() {
                    Token::Integer(v) => v as i64,
                    Token::StringLit(s) => s
                        .trim()
                        .parse()
                        .map_err(|_| HiveError::Parse(format!("bad interval quantity '{s}'")))?,
                    other => {
                        return Err(HiveError::Parse(format!(
                            "expected interval quantity, found '{other}'"
                        )))
                    }
                };
                let unit = self.parse_ident()?;
                let func = match unit.as_str() {
                    "day" | "days" => "__interval_day",
                    "month" | "months" => "__interval_month",
                    "year" | "years" => "__interval_year",
                    other => {
                        return Err(HiveError::Parse(format!("unknown interval unit '{other}'")))
                    }
                };
                Ok(Expr::Function {
                    name: func.into(),
                    args: vec![Expr::Literal(Value::BigInt(n))],
                    distinct: false,
                })
            }
            "CASE" => {
                self.advance();
                let operand = if !self.at_kw("WHEN") {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                let mut branches = Vec::new();
                while self.eat_kw("WHEN") {
                    let cond = self.parse_expr()?;
                    self.expect_kw("THEN")?;
                    let val = self.parse_expr()?;
                    branches.push((cond, val));
                }
                let else_expr = if self.eat_kw("ELSE") {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                self.expect_kw("END")?;
                Ok(Expr::Case {
                    operand,
                    branches,
                    else_expr,
                })
            }
            "CAST" => {
                self.advance();
                self.expect(&Token::LParen)?;
                let e = self.parse_expr()?;
                self.expect_kw("AS")?;
                let dt = self.parse_data_type()?;
                self.expect(&Token::RParen)?;
                Ok(Expr::Cast {
                    expr: Box::new(e),
                    to: dt,
                })
            }
            "EXTRACT" => {
                self.advance();
                self.expect(&Token::LParen)?;
                let field_name = self.parse_ident()?;
                let field = match field_name.as_str() {
                    "year" => DateField::Year,
                    "quarter" => DateField::Quarter,
                    "month" => DateField::Month,
                    "day" => DateField::Day,
                    "dow" | "dayofweek" => DateField::DayOfWeek,
                    "hour" => DateField::Hour,
                    "minute" => DateField::Minute,
                    "second" => DateField::Second,
                    other => {
                        return Err(HiveError::Parse(format!("unknown EXTRACT field '{other}'")))
                    }
                };
                self.expect_kw("FROM")?;
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(Expr::Extract {
                    field,
                    expr: Box::new(e),
                })
            }
            _ => {
                // Function call or column reference.
                if self.peek_at(1) == &Token::LParen {
                    let name = self.parse_ident()?;
                    self.advance(); // (
                    let distinct = self.eat_kw("DISTINCT");
                    let mut args = Vec::new();
                    if self.peek() == &Token::Star {
                        // COUNT(*)
                        self.advance();
                    } else if self.peek() != &Token::RParen {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    if self.at_kw("OVER") {
                        self.advance();
                        return self.parse_over(name, args);
                    }
                    return Ok(Expr::Function {
                        name,
                        args,
                        distinct,
                    });
                }
                let name = self.parse_ident()?;
                self.parse_column_tail(name)
            }
        }
    }

    fn parse_column_tail(&mut self, first: String) -> Result<Expr> {
        if self.peek() == &Token::Dot
            && matches!(self.peek_at(1), Token::Word(_) | Token::QuotedIdent(_))
        {
            self.advance();
            let name = self.parse_ident()?;
            Ok(Expr::Column {
                qualifier: Some(first),
                name,
            })
        } else {
            Ok(Expr::Column {
                qualifier: None,
                name: first,
            })
        }
    }

    fn parse_over(&mut self, func: String, args: Vec<Expr>) -> Result<Expr> {
        self.expect(&Token::LParen)?;
        let mut partition_by = Vec::new();
        let mut order_by = Vec::new();
        let mut frame = None;
        if self.at_kw("PARTITION") {
            self.advance();
            self.expect_kw("BY")?;
            loop {
                partition_by.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.at_kw("ORDER") {
            self.advance();
            self.expect_kw("BY")?;
            loop {
                order_by.push(self.parse_order_item()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.at_kw("ROWS") {
            self.advance();
            self.expect_kw("BETWEEN")?;
            let start = self.parse_frame_bound()?;
            self.expect_kw("AND")?;
            let end = self.parse_frame_bound()?;
            frame = Some(WindowFrame { start, end });
        }
        self.expect(&Token::RParen)?;
        Ok(Expr::Window {
            func,
            args,
            partition_by,
            order_by,
            frame,
        })
    }

    fn parse_frame_bound(&mut self) -> Result<FrameBound> {
        if self.eat_kw("UNBOUNDED") {
            if self.eat_kw("PRECEDING") {
                return Ok(FrameBound::UnboundedPreceding);
            }
            self.expect_kw("FOLLOWING")?;
            return Ok(FrameBound::UnboundedFollowing);
        }
        if self.eat_kw("CURRENT") {
            self.expect_kw("ROW")?;
            return Ok(FrameBound::CurrentRow);
        }
        match self.advance() {
            Token::Integer(v) => {
                if self.eat_kw("PRECEDING") {
                    Ok(FrameBound::Preceding(v as u64))
                } else {
                    self.expect_kw("FOLLOWING")?;
                    Ok(FrameBound::Following(v as u64))
                }
            }
            other => Err(HiveError::Parse(format!(
                "expected frame bound, found '{other}'"
            ))),
        }
    }
}

/// Keywords that terminate an implicit alias position.
fn is_structural_keyword(w: &str) -> bool {
    const KW: &[&str] = &[
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP",
        "HAVING",
        "ORDER",
        "LIMIT",
        "UNION",
        "INTERSECT",
        "EXCEPT",
        "MINUS",
        "JOIN",
        "INNER",
        "LEFT",
        "RIGHT",
        "FULL",
        "CROSS",
        "ON",
        "AND",
        "OR",
        "NOT",
        "AS",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
        "USING",
        "SET",
        "VALUES",
        "INSERT",
        "UPDATE",
        "DELETE",
        "MERGE",
        "INTO",
        "BY",
        "ASC",
        "DESC",
        "NULLS",
        "BETWEEN",
        "IN",
        "LIKE",
        "IS",
        "EXISTS",
        "CASE",
        "DISTINCT",
        "ALL",
        "PARTITION",
        "OVER",
        "ROWS",
        "WITH",
        "SEMI",
        "GROUPING",
        "STORED",
        "TBLPROPERTIES",
        "PARTITIONED",
    ];
    KW.iter().any(|k| w.eq_ignore_ascii_case(k))
}
