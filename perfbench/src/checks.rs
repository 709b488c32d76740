//! Output checks: TPC-C consistency conditions, the analytic-scan
//! oracle, and the restart images. Each check returns the list of
//! violations it found (empty when it passed).

use std::collections::HashMap;

use btrim_core::{Engine, Result};
use btrim_tpcc::analytics;
use btrim_tpcc::loader::DISTRICTS_PER_WAREHOUSE;
use btrim_tpcc::schema::{Customer, District, NewOrder, Order, OrderLine, Tables, Warehouse};

/// `W_YTD` and `D_YTD` as loaded; payments add the same amount to a
/// warehouse and to one of its districts.
const W_YTD_LOADED: f64 = 300_000.0;
const D_YTD_LOADED: f64 = 30_000.0;

fn decode_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: undecodable row: {e}")
}

/// The TPC-C consistency conditions over the whole database:
///
/// 1. `W_YTD = Σ D_YTD` over each warehouse's districts;
/// 2. `D_NEXT_O_ID − 1` = max `O_ID` = number of orders, per district;
/// 3. `NEW_ORDER` ids are contiguous and end at the newest order;
/// 4. each order has exactly `O_OL_CNT` order lines, and no line lacks
///    its order.
pub fn tpcc_consistency(engine: &Engine, tables: &Tables, warehouses: u32) -> Result<Vec<String>> {
    let mut bad = Vec::new();
    let txn = engine.begin();

    // Lines per order, from one pass over order_line.
    let mut lines: HashMap<(u32, u32, u32), u32> = HashMap::new();
    engine.scan_range(&txn, &tables.order_line, &[], None, |_, _, row| {
        match OrderLine::decode(row) {
            Ok(ol) => *lines.entry((ol.w_id, ol.d_id, ol.o_id)).or_default() += 1,
            Err(e) => bad.push(decode_err("order_line", e)),
        }
        true
    })?;

    for w_id in 1..=warehouses {
        let Some(row) = engine.get(&txn, &tables.warehouse, &Warehouse::key(w_id))? else {
            bad.push(format!("warehouse {w_id} missing"));
            continue;
        };
        let w = Warehouse::decode(&row)?;
        let mut d_ytd = 0.0;
        for d_id in 1..=DISTRICTS_PER_WAREHOUSE {
            let Some(row) = engine.get(&txn, &tables.district, &District::key(w_id, d_id))? else {
                bad.push(format!("district {w_id}/{d_id} missing"));
                continue;
            };
            let d = District::decode(&row)?;
            d_ytd += d.ytd - D_YTD_LOADED;

            let mut max_o = 0;
            let mut count = 0;
            engine.scan_range(
                &txn,
                &tables.orders,
                &Order::key(w_id, d_id, 0),
                Some(&Order::key(w_id, d_id, u32::MAX)),
                |_, _, row| {
                    match Order::decode(row) {
                        Ok(o) => {
                            max_o = max_o.max(o.o_id);
                            count += 1;
                            let got = lines.remove(&(w_id, d_id, o.o_id)).unwrap_or(0);
                            if got != o.ol_cnt {
                                bad.push(format!(
                                    "order {w_id}/{d_id}/{}: {got} lines, O_OL_CNT {}",
                                    o.o_id, o.ol_cnt
                                ));
                            }
                        }
                        Err(e) => bad.push(decode_err("orders", e)),
                    }
                    true
                },
            )?;
            if d.next_o_id - 1 != max_o || max_o != count {
                bad.push(format!(
                    "district {w_id}/{d_id}: D_NEXT_O_ID {} but max O_ID {max_o} over {count} orders",
                    d.next_o_id
                ));
            }

            let mut no_ids = Vec::new();
            engine.scan_range(
                &txn,
                &tables.new_order,
                &NewOrder::key(w_id, d_id, 0),
                Some(&NewOrder::key(w_id, d_id, u32::MAX)),
                |_, _, row| {
                    match NewOrder::decode(row) {
                        Ok(no) => no_ids.push(no.o_id),
                        Err(e) => bad.push(decode_err("new_order", e)),
                    }
                    true
                },
            )?;
            if no_ids.windows(2).any(|w| w[1] != w[0] + 1) {
                bad.push(format!(
                    "district {w_id}/{d_id}: NEW_ORDER ids not contiguous"
                ));
            }
            if no_ids.last().is_some_and(|&last| last != max_o) {
                bad.push(format!(
                    "district {w_id}/{d_id}: newest NEW_ORDER {:?} is not the newest order {max_o}",
                    no_ids.last()
                ));
            }
        }
        let w_ytd = w.ytd - W_YTD_LOADED;
        if (w_ytd - d_ytd).abs() > 0.01 {
            bad.push(format!(
                "warehouse {w_id}: W_YTD grew {w_ytd:.2} but its districts' D_YTD grew {d_ytd:.2}"
            ));
        }
    }
    if !lines.is_empty() {
        bad.push(format!(
            "{} orders have lines but no ORDER row",
            lines.len()
        ));
    }
    engine.commit(txn)?;
    Ok(bad)
}

/// One `analytic_scan` (delivered quantity over `order_line`) at a
/// fresh snapshot against a row-at-a-time `scan_range` oracle. Call
/// only while no writer runs.
pub fn scan_matches_oracle(engine: &Engine, tables: &Tables) -> Result<Vec<String>> {
    let txn = engine.begin();
    let (mut rows, mut delivered, mut quantity) = (0u64, 0u64, 0u128);
    let mut bad = Vec::new();
    engine.scan_range(&txn, &tables.order_line, &[], None, |_, _, row| {
        match OrderLine::decode(row) {
            Ok(ol) => {
                rows += 1;
                if ol.delivery_d >= 1 {
                    delivered += 1;
                    quantity += ol.quantity as u128;
                }
            }
            Err(e) => bad.push(decode_err("order_line", e)),
        }
        true
    })?;
    engine.commit(txn)?;
    let snap = engine.begin_snapshot();
    let scan = analytics::delivered_quantity(engine, &snap, tables);
    engine.end_snapshot(snap);
    let scan = scan?;
    let got = (
        scan.rows_scanned,
        scan.rows_matched,
        scan.sums.first().copied(),
    );
    if got != (rows, delivered, Some(quantity)) {
        bad.push(format!(
            "analytic_scan (rows, delivered, quantity) = {got:?}, row-at-a-time oracle = {:?}",
            (rows, delivered, Some(quantity))
        ));
    }
    Ok(bad)
}

/// What must survive a crash: every district's `D_NEXT_O_ID` and the
/// raw image of every `stride`-th customer.
#[derive(Debug, PartialEq, Eq)]
pub struct Images {
    next_o_ids: Vec<u32>,
    customers: Vec<Option<Vec<u8>>>,
}

/// Read the restart images.
pub fn restart_images(
    engine: &Engine,
    tables: &Tables,
    warehouses: u32,
    customers_per_district: u32,
    stride: u32,
) -> Result<Images> {
    let txn = engine.begin();
    let mut images = Images {
        next_o_ids: Vec::new(),
        customers: Vec::new(),
    };
    for w_id in 1..=warehouses {
        for d_id in 1..=DISTRICTS_PER_WAREHOUSE {
            let row = engine.get(&txn, &tables.district, &District::key(w_id, d_id))?;
            let next = match row.map(|r| District::decode(&r)) {
                Some(Ok(d)) => d.next_o_id,
                _ => 0,
            };
            images.next_o_ids.push(next);
            for c_id in (1..=customers_per_district).step_by(stride as usize) {
                images.customers.push(engine.get(
                    &txn,
                    &tables.customer,
                    &Customer::key(w_id, d_id, c_id),
                )?);
            }
        }
    }
    engine.commit(txn)?;
    Ok(images)
}

/// Differences between the images taken before a crash and after
/// recovery.
pub fn compare_images(before: &Images, after: &Images) -> Vec<String> {
    let mut bad = Vec::new();
    for (i, (b, a)) in before.next_o_ids.iter().zip(&after.next_o_ids).enumerate() {
        if b != a {
            bad.push(format!(
                "district #{i}: D_NEXT_O_ID {b} before the crash, {a} after"
            ));
        }
    }
    let differing = before
        .customers
        .iter()
        .zip(&after.customers)
        .filter(|(b, a)| b != a)
        .count();
    if differing > 0 {
        bad.push(format!(
            "{differing} of {} sampled customer rows differ after recovery",
            before.customers.len()
        ));
    }
    bad
}
