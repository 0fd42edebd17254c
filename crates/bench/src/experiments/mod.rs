//! The experiments E1–E8 and E13 (see the README's "Quick start" for the index).

pub mod e13_obs;
pub mod e1_parse;
pub mod e2_insert;
pub mod e3_fetch;
pub mod e4_client_vs_sql;
pub mod e5_analysis;
pub mod e6_cost_scaling;
pub mod e7_distribution;
pub mod e8_online;
pub mod strategies;
