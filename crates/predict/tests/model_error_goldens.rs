//! Bit-identity goldens for the model leg on the CLI's own configuration:
//! Chengdu at full volume, 28 training days, two validation days, the first
//! 24 validation slots, a historical-average predictor and seed 7.
//!
//! The values were recorded when `CityModelError` still sampled the whole
//! validation window with the per-draw sampler. Sampling only up to the
//! last slot read, through prepared Poisson means, must reproduce every
//! bit.

use gridtuner_core::upper_bound::ModelErrorSource;
use gridtuner_datagen::{City, DataSplit};
use gridtuner_predict::{CityModelError, HistoricalAverage, Predictor};

const GOLDENS: [(u32, u64); 21] = [
    (4, 0x4064_1b55_5555_5556),
    (5, 0x4069_5b33_3333_3334),
    (6, 0x406e_9288_8888_8887),
    (7, 0x4070_aeb3_3333_3335),
    (8, 0x4073_1ce6_6666_6667),
    (9, 0x4075_e9aa_aaaa_aaab),
    (10, 0x4078_37f7_7777_7778),
    (11, 0x407a_264c_cccc_cccd),
    (12, 0x407c_f391_1111_1113),
    (13, 0x407f_e455_5555_5554),
    (14, 0x4080_9aea_aaaa_aaaa),
    (15, 0x4082_48a6_6666_6666),
    (16, 0x4083_4ce6_6666_6667),
    (17, 0x4084_5c91_1111_1110),
    (18, 0x4085_bad1_1111_1113),
    (19, 0x4086_6f6e_eeee_eef0),
    (20, 0x4087_e055_5555_5555),
    (21, 0x4089_6726_6666_6667),
    (22, 0x408a_3da6_6666_6663),
    (23, 0x408b_cc62_2222_2220),
    (24, 0x408d_3d08_8888_8888),
];

#[test]
fn chengdu_model_error_bits_match_recorded_values() {
    let split = DataSplit {
        train_days: (0, 28),
        val_days: (28, 30),
        test_day: 30,
    };
    let mut oracle = CityModelError::new(City::chengdu(), split, 7, || {
        Box::new(HistoricalAverage::new()) as Box<dyn Predictor>
    })
    .with_max_eval_slots(24);
    let got: Vec<(u32, u64)> = GOLDENS
        .iter()
        .map(|&(side, _)| (side, oracle.model_error(side).unwrap().to_bits()))
        .collect();
    assert_eq!(got, GOLDENS, "model error bits moved");
}
