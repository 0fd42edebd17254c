//! Property-based tests: the SQL engine against a naive Rust reference
//! implementation, on randomized tables.

use proptest::prelude::*;
use reldb::value::Value;
use reldb::Database;

/// One generated row: (pk, a, b, flag).
type RowSpec = (i64, i64, f64, bool);

fn rows_strategy() -> impl Strategy<Value = Vec<RowSpec>> {
    prop::collection::vec(
        (
            0i64..1000,
            -50i64..50,
            (-100.0f64..100.0).prop_map(|v| (v * 100.0).round() / 100.0),
            any::<bool>(),
        ),
        0..60,
    )
    .prop_map(|mut rows| {
        // Unique primary keys.
        rows.sort_by_key(|r| r.0);
        rows.dedup_by_key(|r| r.0);
        rows
    })
}

fn build_db(rows: &[RowSpec]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b REAL, f BOOLEAN)")
        .unwrap();
    db.execute("CREATE INDEX t_a ON t (a)").unwrap();
    for (id, a, b, f) in rows {
        db.execute(&format!(
            "INSERT INTO t (id, a, b, f) VALUES ({id}, {a}, {b:e}, {})",
            if *f { "TRUE" } else { "FALSE" }
        ))
        .unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn filter_matches_reference(rows in rows_strategy(), k in -60i64..60) {
        let db = build_db(&rows);
        let r = db.query(&format!("SELECT id FROM t WHERE a > {k} ORDER BY id")).unwrap();
        let expected: Vec<i64> = rows.iter().filter(|x| x.1 > k).map(|x| x.0).collect();
        let got: Vec<i64> = r.rows.iter().map(|x| x[0].as_i64().unwrap()).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn indexed_point_lookup_matches_scan(rows in rows_strategy(), k in -60i64..60) {
        let db = build_db(&rows);
        // Same query via index (a = k uses the index) and a full scan
        // variant that defeats index selection.
        let fast = db.query(&format!("SELECT COUNT(*) FROM t WHERE a = {k}")).unwrap();
        let slow = db.query(&format!("SELECT COUNT(*) FROM t WHERE a + 0 = {k}")).unwrap();
        prop_assert_eq!(fast.rows[0][0].clone(), slow.rows[0][0].clone());
        let expected = rows.iter().filter(|x| x.1 == k).count() as i64;
        prop_assert_eq!(fast.rows[0][0].as_i64().unwrap(), expected);
    }

    #[test]
    fn aggregates_match_reference(rows in rows_strategy()) {
        let db = build_db(&rows);
        let r = db.query("SELECT COUNT(*), SUM(b), MIN(a), MAX(a) FROM t WHERE f").unwrap();
        let filtered: Vec<&RowSpec> = rows.iter().filter(|x| x.3).collect();
        prop_assert_eq!(r.rows[0][0].as_i64().unwrap(), filtered.len() as i64);
        if filtered.is_empty() {
            prop_assert_eq!(r.rows[0][1].clone(), Value::Null);
            prop_assert_eq!(r.rows[0][2].clone(), Value::Null);
        } else {
            let sum: f64 = filtered.iter().map(|x| x.2).sum();
            prop_assert!((r.rows[0][1].as_f64().unwrap() - sum).abs() < 1e-9);
            prop_assert_eq!(
                r.rows[0][2].as_i64().unwrap(),
                filtered.iter().map(|x| x.1).min().unwrap()
            );
            prop_assert_eq!(
                r.rows[0][3].as_i64().unwrap(),
                filtered.iter().map(|x| x.1).max().unwrap()
            );
        }
    }

    #[test]
    fn order_by_matches_reference(rows in rows_strategy()) {
        let db = build_db(&rows);
        let r = db.query("SELECT id FROM t ORDER BY b, id").unwrap();
        let mut expected: Vec<(f64, i64)> = rows.iter().map(|x| (x.2, x.0)).collect();
        expected.sort_by(|p, q| p.0.total_cmp(&q.0).then(p.1.cmp(&q.1)));
        let got: Vec<i64> = r.rows.iter().map(|x| x[0].as_i64().unwrap()).collect();
        let want: Vec<i64> = expected.iter().map(|x| x.1).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn correlated_subquery_matches_join_free_reference(rows in rows_strategy()) {
        let db = build_db(&rows);
        // For each row: the max b among rows with the same a.
        let r = db
            .query(
                "SELECT id, (SELECT MAX(u.b) FROM t u WHERE u.a = t.a) FROM t ORDER BY id",
            )
            .unwrap();
        for row in &r.rows {
            let id = row[0].as_i64().unwrap();
            let a = rows.iter().find(|x| x.0 == id).unwrap().1;
            let expected = rows
                .iter()
                .filter(|x| x.1 == a)
                .map(|x| x.2)
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((row[1].as_f64().unwrap() - expected).abs() < 1e-9);
        }
    }
}
