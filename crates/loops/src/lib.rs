//! Kept for the benchmark suite, which names `pba_loops::loop_forest_on`.
//! The loop code lives in [`pba_dataflow::loops`]; product code asks
//! [`pba_dataflow::FuncIr::loop_forest`], which builds each function's
//! forest once for every consumer.

pub use pba_dataflow::loops::loop_forest_on;
