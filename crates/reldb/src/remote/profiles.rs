//! Backend and API-binding cost profiles.
//!
//! All values are *modeled 1999-era microcosts* in seconds. They were
//! chosen from period-plausible magnitudes (switched 10/100 Mbit LAN round
//! trips of a few hundred microseconds; heavyweight redo logging in Oracle
//! 7; an in-process Jet engine for MS Access; interpretive JDBC drivers
//! marshalling every value through JNI) — see the README's "SQL path
//! (frozen paper reproduction)". The paper's reported ratios are *outputs*
//! of these inputs, reproduced by experiment E2/E3 (`kojak-bench`).

use serde::{Deserialize, Serialize};

/// Per-operation server + network cost model of one database backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendProfile {
    /// Display name.
    pub name: &'static str,
    /// One network round trip, in seconds. Zero for in-process engines.
    pub network_rtt: f64,
    /// Server-side statement parse/optimize cost per statement.
    pub stmt_parse: f64,
    /// Server-side cost per inserted row (execution + logging share).
    pub insert_exec: f64,
    /// Fixed server-side cost per query (plan setup, cursor open).
    pub query_base: f64,
    /// Server-side cost per row *scanned* during query execution.
    pub row_scan: f64,
    /// Server-side cost per row *materialized* for the client.
    pub row_fetch: f64,
    /// Network transfer cost per byte of result data.
    pub byte_transfer: f64,
}

impl BackendProfile {
    /// Oracle 7 over the network.
    ///
    /// Rationale: client/server over a switched LAN (250 µs RTT); Oracle 7
    /// parses every literal-bearing statement (no cursor sharing as used by
    /// the tool, 450 µs); synchronous redo logging makes row inserts
    /// expensive (1 ms); mature executor scans fast (3 µs/row).
    pub fn oracle7() -> Self {
        BackendProfile {
            name: "Oracle 7",
            network_rtt: 0.25e-3,
            stmt_parse: 0.45e-3,
            insert_exec: 1.0e-3,
            query_base: 0.9e-3,
            row_scan: 3.0e-6,
            row_fetch: 0.10e-3,
            byte_transfer: 8.0e-8, // ~12.5 MB/s effective LAN bandwidth
        }
    }

    /// MS SQL Server 7 over the network.
    ///
    /// Rationale: TDS protocol with cheaper statement handling (120 µs
    /// parse) and lighter row logging (300 µs/insert).
    pub fn mssql7() -> Self {
        BackendProfile {
            name: "MS SQL Server 7",
            network_rtt: 0.20e-3,
            stmt_parse: 0.12e-3,
            insert_exec: 0.30e-3,
            query_base: 0.6e-3,
            row_scan: 3.5e-6,
            row_fetch: 0.08e-3,
            byte_transfer: 8.0e-8,
        }
    }

    /// PostgreSQL (6.x era) over the network.
    ///
    /// Rationale: similar LAN setup; per-statement parse slightly above MS
    /// SQL, insert cost with fsync-light configuration 350 µs.
    pub fn postgres() -> Self {
        BackendProfile {
            name: "Postgres",
            network_rtt: 0.22e-3,
            stmt_parse: 0.15e-3,
            insert_exec: 0.35e-3,
            query_base: 0.7e-3,
            row_scan: 4.0e-6,
            row_fetch: 0.09e-3,
            byte_transfer: 8.0e-8,
        }
    }

    /// MS Access (Jet) in-process on the client machine.
    ///
    /// Rationale: no network, no client/server protocol; file-based engine
    /// with tiny per-statement overhead (15 µs) and cheap row appends
    /// (35 µs). §5 of the paper: "For all those databases, except MS
    /// Access, the setup was in a distributed fashion."
    pub fn msaccess() -> Self {
        BackendProfile {
            name: "MS Access",
            network_rtt: 0.0,
            stmt_parse: 0.015e-3,
            insert_exec: 0.035e-3,
            query_base: 0.05e-3,
            row_scan: 6.0e-6, // slower scans: file-based, no server cache
            row_fetch: 0.02e-3,
            byte_transfer: 0.0,
        }
    }

    /// All four backends of the paper's §5 experiment, in reporting order.
    pub fn all() -> Vec<BackendProfile> {
        vec![
            Self::oracle7(),
            Self::msaccess(),
            Self::mssql7(),
            Self::postgres(),
        ]
    }
}

/// Client-side API binding cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiBinding {
    /// Display name.
    pub name: &'static str,
    /// Fixed client-side cost per API call (statement execute, row fetch).
    pub per_call: f64,
    /// Client-side marshalling cost per value crossing the API.
    pub per_value: f64,
}

impl ApiBinding {
    /// A 1999-era JDBC driver: interpreted driver layers, per-value object
    /// wrapping, JNI crossings.
    pub fn jdbc() -> Self {
        ApiBinding {
            name: "JDBC",
            per_call: 0.30e-3,
            per_value: 0.06e-3,
        }
    }

    /// A native C binding (OCI/DB-Library): thin stubs, values delivered
    /// into preallocated buffers.
    pub fn native_c() -> Self {
        ApiBinding {
            name: "native C",
            per_call: 0.05e-3,
            per_value: 0.005e-3,
        }
    }

    /// Cost of one API call transferring `values` scalar values.
    pub fn call_cost(&self, values: usize) -> f64 {
        self.per_call + self.per_value * values as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row-at-a-time insert cost used by the paper-shape assertions below.
    fn insert_cost(p: &BackendProfile, b: &ApiBinding, cols: usize) -> f64 {
        p.network_rtt + p.stmt_parse + p.insert_exec + b.call_cost(cols)
    }

    fn fetch_cost(p: &BackendProfile, b: &ApiBinding, cols: usize) -> f64 {
        p.network_rtt + p.row_fetch + b.call_cost(cols)
    }

    #[test]
    fn oracle_is_about_2x_mssql_and_postgres_on_insert() {
        let jdbc = ApiBinding::jdbc();
        let o = insert_cost(&BackendProfile::oracle7(), &jdbc, 6);
        let m = insert_cost(&BackendProfile::mssql7(), &jdbc, 6);
        let p = insert_cost(&BackendProfile::postgres(), &jdbc, 6);
        assert!(o / m > 1.6 && o / m < 2.4, "oracle/mssql = {}", o / m);
        assert!(o / p > 1.5 && o / p < 2.3, "oracle/postgres = {}", o / p);
    }

    #[test]
    fn access_is_about_20x_faster_than_oracle_on_insert() {
        // Oracle via JDBC over the network vs Access in-process (native).
        let o = insert_cost(&BackendProfile::oracle7(), &ApiBinding::jdbc(), 6);
        let a = insert_cost(&BackendProfile::msaccess(), &ApiBinding::native_c(), 6);
        let ratio = o / a;
        assert!((14.0..28.0).contains(&ratio), "oracle/access = {ratio}");
    }

    #[test]
    fn oracle_jdbc_fetch_is_about_1ms() {
        let f = fetch_cost(&BackendProfile::oracle7(), &ApiBinding::jdbc(), 6);
        assert!((0.8e-3..1.3e-3).contains(&f), "fetch = {f}");
    }

    #[test]
    fn jdbc_is_2_to_4x_slower_than_native() {
        for p in [
            BackendProfile::oracle7(),
            BackendProfile::mssql7(),
            BackendProfile::postgres(),
        ] {
            let j = fetch_cost(&p, &ApiBinding::jdbc(), 6);
            let n = fetch_cost(&p, &ApiBinding::native_c(), 6);
            let ratio = j / n;
            assert!(
                (2.0..4.0).contains(&ratio),
                "{}: jdbc/native = {ratio}",
                p.name
            );
        }
    }

    #[test]
    fn call_cost_scales_with_values() {
        let b = ApiBinding::jdbc();
        assert!(b.call_cost(10) > b.call_cost(1));
    }
}
