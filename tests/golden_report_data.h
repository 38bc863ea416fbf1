// Report bytes captured before the renderers were unified behind one
// Report type (see tests/report_pin_test.cc for the runs that produce
// them). Wall-clock figures are masked: "seconds": X in JSON, "in Xs"
// in text.
#ifndef FASTOD_TESTS_GOLDEN_REPORT_DATA_H_
#define FASTOD_TESTS_GOLDEN_REPORT_DATA_H_

namespace fastod {

inline const char kPinFastodText[] = R"pin(FASTOD: 30 ODs (22 constancy + 8 compatibility + 0 bidirectional) in Xs
  {}: [] -> year
  {date_sk}: [] -> flight_id
  {flight_id}: [] -> date_sk
  {flight_id}: [] -> month
  {flight_id}: [] -> quarter
  {flight_id}: [] -> day
  {flight_id}: [] -> carrier
  {flight_id}: [] -> origin
  {date_sk}: [] -> month
  {date_sk}: [] -> quarter
  {date_sk}: [] -> day
  {date_sk}: [] -> carrier
  {date_sk}: [] -> origin
  {month}: [] -> quarter
  {month,day}: [] -> flight_id
  {month,day}: [] -> date_sk
  {month,day}: [] -> carrier
  {month,day}: [] -> origin
  {quarter,day,origin}: [] -> flight_id
  {quarter,day,origin}: [] -> date_sk
  {quarter,day,origin}: [] -> month
  {quarter,day,origin}: [] -> carrier
  {}: flight_id ~ date_sk
  {}: flight_id ~ month
  {}: flight_id ~ quarter
  {}: date_sk ~ month
  {}: date_sk ~ quarter
  {}: month ~ quarter
  {month,carrier,origin}: flight_id ~ day
  {month,carrier,origin}: date_sk ~ day
)pin";

inline const char kPinTaneText[] = R"pin(TANE: 17 minimal FDs in Xs
  {} -> year
  {flight_id} -> date_sk
  {flight_id} -> month
  {flight_id} -> quarter
  {flight_id} -> day
  {flight_id} -> carrier
  {flight_id} -> origin
  {date_sk} -> flight_id
  {date_sk} -> month
  {date_sk} -> quarter
  {date_sk} -> day
  {date_sk} -> carrier
  {date_sk} -> origin
  {month} -> quarter
  {month,day} -> carrier
  {month,day} -> origin
  {quarter,day,origin} -> carrier
)pin";

inline const char kPinOrderText[] = R"pin(ORDER: 53 list ODs in Xs
  [flight_id] orders [year]
  [date_sk] orders [year]
  [month] orders [year]
  [quarter] orders [year]
  [day] orders [year]
  [carrier] orders [year]
  [origin] orders [year]
  [date_sk] orders [flight_id]
  [flight_id] orders [date_sk]
  [flight_id] orders [month]
  [date_sk] orders [month]
  [flight_id] orders [quarter]
  [date_sk] orders [quarter]
  [month] orders [quarter]
  [date_sk] orders [year,flight_id]
  [flight_id] orders [year,date_sk]
  [flight_id] orders [year,month]
  [date_sk] orders [year,month]
  [flight_id] orders [year,quarter]
  [date_sk] orders [year,quarter]
  [month] orders [year,quarter]
  [year,date_sk] orders [flight_id]
  [date_sk] orders [flight_id,year]
  [month,date_sk] orders [flight_id]
  [date_sk] orders [flight_id,month]
  [quarter,date_sk] orders [flight_id]
  [date_sk] orders [flight_id,quarter]
  [year,flight_id] orders [date_sk]
  [flight_id] orders [date_sk,year]
  [month,flight_id] orders [date_sk]
  [flight_id] orders [date_sk,month]
  [quarter,flight_id] orders [date_sk]
  [flight_id] orders [date_sk,quarter]
  [year,flight_id] orders [month]
  [flight_id] orders [month,year]
  [year,date_sk] orders [month]
  [date_sk] orders [month,year]
  [date_sk] orders [month,flight_id]
  [flight_id] orders [month,date_sk]
  [quarter,flight_id] orders [month]
  [flight_id] orders [month,quarter]
  [quarter,date_sk] orders [month]
  [date_sk] orders [month,quarter]
  [year,flight_id] orders [quarter]
  [flight_id] orders [quarter,year]
  [year,date_sk] orders [quarter]
  [date_sk] orders [quarter,year]
  [year,month] orders [quarter]
  [month] orders [quarter,year]
  [date_sk] orders [quarter,flight_id]
  [flight_id] orders [quarter,date_sk]
  [flight_id] orders [quarter,month]
  [date_sk] orders [quarter,month]
)pin";

inline const char kPinBruteForceText[] = R"pin(BRUTE-FORCE: 30 ODs (22 constancy + 8 compatibility + 0 bidirectional) in Xs
  {}: [] -> year
  {flight_id}: [] -> date_sk
  {flight_id}: [] -> month
  {flight_id}: [] -> quarter
  {flight_id}: [] -> day
  {flight_id}: [] -> carrier
  {flight_id}: [] -> origin
  {date_sk}: [] -> flight_id
  {date_sk}: [] -> month
  {date_sk}: [] -> quarter
  {date_sk}: [] -> day
  {date_sk}: [] -> carrier
  {date_sk}: [] -> origin
  {month}: [] -> quarter
  {month,day}: [] -> flight_id
  {month,day}: [] -> date_sk
  {month,day}: [] -> carrier
  {month,day}: [] -> origin
  {quarter,day,origin}: [] -> flight_id
  {quarter,day,origin}: [] -> date_sk
  {quarter,day,origin}: [] -> month
  {quarter,day,origin}: [] -> carrier
  {}: flight_id ~ date_sk
  {}: flight_id ~ month
  {}: flight_id ~ quarter
  {}: date_sk ~ month
  {}: date_sk ~ quarter
  {}: month ~ quarter
  {month,carrier,origin}: flight_id ~ day
  {month,carrier,origin}: date_sk ~ day
)pin";

inline const char kPinApproximateText[] = R"pin(APPROXIMATE: 38 ODs (26 constancy + 12 compatibility + 0 bidirectional) in Xs
  {}: [] -> year
  {date_sk}: [] -> flight_id
  {flight_id}: [] -> date_sk
  {flight_id}: [] -> month
  {flight_id}: [] -> quarter
  {flight_id}: [] -> day
  {flight_id}: [] -> carrier
  {flight_id}: [] -> origin
  {date_sk}: [] -> month
  {date_sk}: [] -> quarter
  {date_sk}: [] -> day
  {date_sk}: [] -> carrier
  {date_sk}: [] -> origin
  {month}: [] -> quarter
  {month,day}: [] -> flight_id
  {month,day}: [] -> date_sk
  {month,day}: [] -> carrier
  {month,day}: [] -> origin
  {quarter,day,origin}: [] -> flight_id
  {quarter,day,origin}: [] -> date_sk
  {quarter,day,origin}: [] -> month
  {day,carrier,origin}: [] -> flight_id
  {day,carrier,origin}: [] -> date_sk
  {day,carrier,origin}: [] -> month
  {day,carrier,origin}: [] -> quarter
  {quarter,day,origin}: [] -> carrier
  {}: flight_id ~ date_sk
  {}: flight_id ~ month
  {}: flight_id ~ quarter
  {}: date_sk ~ month
  {}: date_sk ~ quarter
  {}: month ~ quarter
  {day,origin}: flight_id ~ carrier
  {day,origin}: date_sk ~ carrier
  {day,origin}: month ~ carrier
  {day,origin}: quarter ~ carrier
  {month,carrier,origin}: flight_id ~ day
  {month,carrier,origin}: date_sk ~ day
)pin";

inline const char kPinConditionalText[] = R"pin(22 conditional OD(s) at support >= 0.250000
  (origin in {AP000000,AP000001,AP000003,AP000004,AP000005,AP000006,AP000007,AP000008,AP000009,AP000010,AP000011,AP000012,AP000013,AP000014,AP000016,AP000017,AP000018,AP000019,AP000020,AP000021,AP000022,AP000023,AP000024,AP000025,AP000026,AP000027,AP000028,AP000029,AP000030,AP000031,AP000032,AP000033,AP000034,AP000035,AP000037,AP000038,AP000039,AP000041,AP000042,AP000045,AP000048,AP000049}) => {day}: [] -> carrier  [support 72%]
  (origin in {AP000000,AP000001,AP000003,AP000004,AP000005,AP000006,AP000007,AP000009,AP000010,AP000011,AP000012,AP000013,AP000014,AP000016,AP000017,AP000018,AP000019,AP000020,AP000021,AP000022,AP000023,AP000024,AP000025,AP000026,AP000027,AP000028,AP000029,AP000030,AP000031,AP000032,AP000033,AP000034,AP000035,AP000037,AP000038,AP000039,AP000041,AP000042,AP000045,AP000048,AP000049}) => {day}: [] -> flight_id  [support 70%]
  (origin in {AP000000,AP000001,AP000003,AP000004,AP000005,AP000006,AP000007,AP000009,AP000010,AP000011,AP000012,AP000013,AP000014,AP000016,AP000017,AP000018,AP000019,AP000020,AP000021,AP000022,AP000023,AP000024,AP000025,AP000026,AP000027,AP000028,AP000029,AP000030,AP000031,AP000032,AP000033,AP000034,AP000035,AP000037,AP000038,AP000039,AP000041,AP000042,AP000045,AP000048,AP000049}) => {day}: [] -> date_sk  [support 70%]
  (origin in {AP000000,AP000001,AP000003,AP000004,AP000005,AP000006,AP000007,AP000009,AP000010,AP000011,AP000012,AP000013,AP000014,AP000016,AP000017,AP000018,AP000019,AP000020,AP000021,AP000022,AP000023,AP000024,AP000025,AP000026,AP000027,AP000028,AP000029,AP000030,AP000031,AP000032,AP000033,AP000034,AP000035,AP000037,AP000038,AP000039,AP000041,AP000042,AP000045,AP000048,AP000049}) => {day}: [] -> month  [support 70%]
  (origin in {AP000000,AP000001,AP000003,AP000004,AP000005,AP000006,AP000007,AP000009,AP000010,AP000011,AP000012,AP000013,AP000014,AP000016,AP000017,AP000018,AP000019,AP000020,AP000021,AP000022,AP000023,AP000024,AP000025,AP000026,AP000027,AP000028,AP000029,AP000030,AP000031,AP000032,AP000033,AP000034,AP000035,AP000037,AP000038,AP000039,AP000041,AP000042,AP000045,AP000048,AP000049}) => {day}: [] -> quarter  [support 70%]
  (day in {1,2,3,4,5,6,10,11,13,16,17,18,19,22,23,24,25,27,28,29}) => {origin}: [] -> flight_id  [support 66%]
  (day in {1,2,3,4,5,6,10,11,13,16,17,18,19,22,23,24,25,27,28,29}) => {origin}: [] -> date_sk  [support 66%]
  (day in {1,2,3,4,5,6,10,11,13,16,17,18,19,22,23,24,25,27,28,29}) => {origin}: [] -> month  [support 66%]
  (day in {1,2,3,4,5,6,10,11,13,16,17,18,19,22,23,24,25,27,28,29}) => {origin}: [] -> quarter  [support 66%]
  (day in {1,2,3,4,5,6,10,11,13,16,17,18,19,22,23,24,25,27,28,29}) => {origin}: [] -> carrier  [support 66%]
  (month in {1,3,5,7,9,10,12}) => {}: flight_id ~ day  [support 58%]
  (month in {1,3,5,7,9,10,12}) => {}: date_sk ~ day  [support 58%]
  (origin in {AP000000,AP000001,AP000003,AP000004,AP000005,AP000006,AP000008,AP000009,AP000010,AP000011,AP000012,AP000013,AP000014,AP000015,AP000016,AP000017,AP000018,AP000019,AP000020,AP000023,AP000024,AP000026,AP000027,AP000028,AP000029,AP000030,AP000031,AP000033,AP000035,AP000036,AP000038,AP000040,AP000042,AP000045,AP000048}) => {month}: [] -> carrier  [support 57%]
  (origin in {AP000000,AP000001,AP000003,AP000004,AP000005,AP000006,AP000008,AP000009,AP000010,AP000011,AP000012,AP000013,AP000014,AP000015,AP000017,AP000018,AP000019,AP000020,AP000023,AP000024,AP000026,AP000027,AP000028,AP000030,AP000031,AP000033,AP000035,AP000036,AP000038,AP000040,AP000042,AP000045,AP000048}) => {month}: [] -> flight_id  [support 53%]
  (origin in {AP000000,AP000001,AP000003,AP000004,AP000005,AP000006,AP000008,AP000009,AP000010,AP000011,AP000012,AP000013,AP000014,AP000015,AP000017,AP000018,AP000019,AP000020,AP000023,AP000024,AP000026,AP000027,AP000028,AP000030,AP000031,AP000033,AP000035,AP000036,AP000038,AP000040,AP000042,AP000045,AP000048}) => {month}: [] -> date_sk  [support 53%]
  (origin in {AP000000,AP000001,AP000003,AP000004,AP000005,AP000006,AP000008,AP000009,AP000010,AP000011,AP000012,AP000013,AP000014,AP000015,AP000017,AP000018,AP000019,AP000020,AP000023,AP000024,AP000026,AP000027,AP000028,AP000030,AP000031,AP000033,AP000035,AP000036,AP000038,AP000040,AP000042,AP000045,AP000048}) => {month}: [] -> day  [support 53%]
  (origin in {AP000003,AP000004,AP000007,AP000009,AP000011,AP000012,AP000013,AP000014,AP000015,AP000016,AP000017,AP000020,AP000022,AP000024,AP000026,AP000027,AP000028,AP000029,AP000031,AP000033,AP000035,AP000037,AP000038,AP000041,AP000042,AP000044,AP000049}) => {carrier}: [] -> quarter  [support 40%]
  (origin in {AP000003,AP000004,AP000009,AP000011,AP000012,AP000013,AP000014,AP000015,AP000017,AP000020,AP000022,AP000024,AP000026,AP000027,AP000028,AP000029,AP000031,AP000033,AP000035,AP000037,AP000038,AP000041,AP000042,AP000044,AP000049}) => {carrier}: [] -> month  [support 34%]
  (origin in {AP000003,AP000004,AP000009,AP000011,AP000012,AP000013,AP000014,AP000015,AP000017,AP000020,AP000022,AP000024,AP000026,AP000027,AP000028,AP000031,AP000033,AP000035,AP000037,AP000038,AP000041,AP000042,AP000044,AP000049}) => {carrier}: [] -> flight_id  [support 32%]
  (origin in {AP000003,AP000004,AP000009,AP000011,AP000012,AP000013,AP000014,AP000015,AP000017,AP000020,AP000022,AP000024,AP000026,AP000027,AP000028,AP000031,AP000033,AP000035,AP000037,AP000038,AP000041,AP000042,AP000044,AP000049}) => {carrier}: [] -> date_sk  [support 32%]
  (origin in {AP000003,AP000004,AP000009,AP000011,AP000012,AP000013,AP000014,AP000015,AP000017,AP000020,AP000022,AP000024,AP000026,AP000027,AP000028,AP000031,AP000033,AP000035,AP000037,AP000038,AP000041,AP000042,AP000044,AP000049}) => {carrier}: [] -> day  [support 32%]
  (origin in {AP000001,AP000003,AP000004,AP000009,AP000012,AP000013,AP000014,AP000015,AP000017,AP000018,AP000020,AP000022,AP000024,AP000026,AP000027,AP000029,AP000035,AP000037,AP000039,AP000041,AP000044,AP000048}) => {quarter}: [] -> month  [support 26%]
)pin";

inline const char kPinIncrementalText[] = R"pin(INCREMENTAL: 30 ODs (18 surviving + 12 new), 12 revoked, 382 lattice nodes re-searched in Xs
  revoked {}: [] -> quarter
  revoked {day,carrier}: [] -> flight_id
  revoked {day,origin}: [] -> flight_id
  revoked {day,carrier}: [] -> date_sk
  revoked {day,origin}: [] -> date_sk
  revoked {day,carrier}: [] -> month
  revoked {day,origin}: [] -> month
  revoked {day,origin}: [] -> carrier
  revoked {day,carrier}: [] -> origin
  revoked {month,carrier,origin}: [] -> flight_id
  revoked {month,carrier,origin}: [] -> date_sk
  revoked {month,carrier,origin}: [] -> day
  {}: [] -> year
  {date_sk}: [] -> flight_id
  {flight_id}: [] -> date_sk
  {flight_id}: [] -> month
  {flight_id}: [] -> day
  {flight_id}: [] -> carrier
  {flight_id}: [] -> origin
  {date_sk}: [] -> month
  {date_sk}: [] -> day
  {date_sk}: [] -> carrier
  {date_sk}: [] -> origin
  {month,day}: [] -> flight_id
  {month,day}: [] -> date_sk
  {month,day}: [] -> carrier
  {month,day}: [] -> origin
  {flight_id}: [] -> quarter
  {date_sk}: [] -> quarter
  {month}: [] -> quarter
  {quarter,day,origin}: [] -> flight_id
  {quarter,day,origin}: [] -> date_sk
  {quarter,day,origin}: [] -> month
  {quarter,day,origin}: [] -> carrier
  {}: flight_id ~ date_sk
  {}: flight_id ~ month
  {}: date_sk ~ month
  {}: flight_id ~ quarter
  {}: date_sk ~ quarter
  {}: month ~ quarter
  {month,carrier,origin}: flight_id ~ day
  {month,carrier,origin}: date_sk ~ day
)pin";

inline const char kPinIncrementalJson[] = R"pin({
  "algorithm": "incremental",
  "relation": {"rows": 200, "attributes": ["year","flight_id","date_sk","month","quarter","day","carrier","origin"]},
  "stats": {"seconds": X, "timed_out": false},
  "constancy_ods": [
    {"context": [], "attribute": "year"},
    {"context": ["date_sk"], "attribute": "flight_id"},
    {"context": ["flight_id"], "attribute": "date_sk"},
    {"context": ["flight_id"], "attribute": "month"},
    {"context": ["flight_id"], "attribute": "day"},
    {"context": ["flight_id"], "attribute": "carrier"},
    {"context": ["flight_id"], "attribute": "origin"},
    {"context": ["date_sk"], "attribute": "month"},
    {"context": ["date_sk"], "attribute": "day"},
    {"context": ["date_sk"], "attribute": "carrier"},
    {"context": ["date_sk"], "attribute": "origin"},
    {"context": ["month","day"], "attribute": "flight_id"},
    {"context": ["month","day"], "attribute": "date_sk"},
    {"context": ["month","day"], "attribute": "carrier"},
    {"context": ["month","day"], "attribute": "origin"},
    {"context": ["flight_id"], "attribute": "quarter"},
    {"context": ["date_sk"], "attribute": "quarter"},
    {"context": ["month"], "attribute": "quarter"},
    {"context": ["quarter","day","origin"], "attribute": "flight_id"},
    {"context": ["quarter","day","origin"], "attribute": "date_sk"},
    {"context": ["quarter","day","origin"], "attribute": "month"},
    {"context": ["quarter","day","origin"], "attribute": "carrier"}
  ],
  "compatibility_ods": [
    {"context": [], "a": "flight_id", "b": "date_sk"},
    {"context": [], "a": "flight_id", "b": "month"},
    {"context": [], "a": "date_sk", "b": "month"},
    {"context": [], "a": "flight_id", "b": "quarter"},
    {"context": [], "a": "date_sk", "b": "quarter"},
    {"context": [], "a": "month", "b": "quarter"},
    {"context": ["month","carrier","origin"], "a": "flight_id", "b": "day"},
    {"context": ["month","carrier","origin"], "a": "date_sk", "b": "day"}
  ],
  "bidirectional_ods": [
  ],
  "revoked_constancy_ods": [
    {"context": [], "attribute": "quarter"},
    {"context": ["day","carrier"], "attribute": "flight_id"},
    {"context": ["day","origin"], "attribute": "flight_id"},
    {"context": ["day","carrier"], "attribute": "date_sk"},
    {"context": ["day","origin"], "attribute": "date_sk"},
    {"context": ["day","carrier"], "attribute": "month"},
    {"context": ["day","origin"], "attribute": "month"},
    {"context": ["day","origin"], "attribute": "carrier"},
    {"context": ["day","carrier"], "attribute": "origin"},
    {"context": ["month","carrier","origin"], "attribute": "flight_id"},
    {"context": ["month","carrier","origin"], "attribute": "date_sk"},
    {"context": ["month","carrier","origin"], "attribute": "day"}
  ],
  "revoked_compatibility_ods": [
  ],
  "incremental": {"base_rows": 50, "delta_rows": 150, "revalidated": 30, "revoked": 12, "new_ods": 12, "escalations": 12, "nodes_searched": 382, "cancelled": false}
}
)pin";

inline const char kPinBidirectionalJson[] = R"pin({
  "algorithm": "fastod",
  "relation": {"rows": 4, "attributes": ["month","quarter","salary","rank"]},
  "stats": {"seconds": X, "timed_out": false},
  "constancy_ods": [
    {"context": ["month"], "attribute": "quarter"},
    {"context": ["salary"], "attribute": "month"},
    {"context": ["month"], "attribute": "salary"},
    {"context": ["rank"], "attribute": "month"},
    {"context": ["month"], "attribute": "rank"},
    {"context": ["salary"], "attribute": "quarter"},
    {"context": ["rank"], "attribute": "quarter"},
    {"context": ["rank"], "attribute": "salary"},
    {"context": ["salary"], "attribute": "rank"}
  ],
  "compatibility_ods": [
    {"context": [], "a": "month", "b": "quarter"},
    {"context": [], "a": "month", "b": "salary"},
    {"context": [], "a": "quarter", "b": "salary"}
  ],
  "bidirectional_ods": [
    {"context": [], "a": "month", "b": "rank", "polarity": "opposite"},
    {"context": [], "a": "quarter", "b": "rank", "polarity": "opposite"},
    {"context": [], "a": "salary", "b": "rank", "polarity": "opposite"}
  ]
}
)pin";

inline const char kPinBidirectionalText[] = R"pin(FASTOD: 15 ODs (9 constancy + 3 compatibility + 3 bidirectional) in Xs
  {month}: [] -> quarter
  {salary}: [] -> month
  {month}: [] -> salary
  {rank}: [] -> month
  {month}: [] -> rank
  {salary}: [] -> quarter
  {rank}: [] -> quarter
  {rank}: [] -> salary
  {salary}: [] -> rank
  {}: month ~ quarter
  {}: month ~ salary
  {}: quarter ~ salary
  {}: month ~ rank desc
  {}: quarter ~ rank desc
  {}: salary ~ rank desc
)pin";

inline const char kPinBruteForceBidirectionalJson[] = R"pin({
  "algorithm": "brute-force",
  "relation": {"rows": 4, "attributes": ["month","quarter","salary","rank"]},
  "stats": {"seconds": X, "timed_out": false},
  "constancy_ods": [
    {"context": ["month"], "attribute": "quarter"},
    {"context": ["month"], "attribute": "salary"},
    {"context": ["month"], "attribute": "rank"},
    {"context": ["salary"], "attribute": "month"},
    {"context": ["salary"], "attribute": "quarter"},
    {"context": ["salary"], "attribute": "rank"},
    {"context": ["rank"], "attribute": "month"},
    {"context": ["rank"], "attribute": "quarter"},
    {"context": ["rank"], "attribute": "salary"}
  ],
  "compatibility_ods": [
    {"context": [], "a": "month", "b": "quarter"},
    {"context": [], "a": "month", "b": "salary"},
    {"context": [], "a": "quarter", "b": "salary"}
  ],
  "bidirectional_ods": [
    {"context": [], "a": "month", "b": "rank", "polarity": "opposite"},
    {"context": [], "a": "quarter", "b": "rank", "polarity": "opposite"},
    {"context": [], "a": "salary", "b": "rank", "polarity": "opposite"}
  ]
}
)pin";

inline const char kPinBruteForceBidirectionalText[] = R"pin(BRUTE-FORCE: 15 ODs (9 constancy + 3 compatibility + 3 bidirectional) in Xs
  {month}: [] -> quarter
  {month}: [] -> salary
  {month}: [] -> rank
  {salary}: [] -> month
  {salary}: [] -> quarter
  {salary}: [] -> rank
  {rank}: [] -> month
  {rank}: [] -> quarter
  {rank}: [] -> salary
  {}: month ~ quarter
  {}: month ~ salary
  {}: quarter ~ salary
  {}: month ~ rank desc
  {}: quarter ~ rank desc
  {}: salary ~ rank desc
)pin";

inline const char kPinFastodCountOnlyJson[] = R"pin({
  "algorithm": "fastod",
  "relation": {"rows": 200, "attributes": ["year","flight_id","date_sk","month","quarter","day","carrier","origin"]},
  "stats": {"seconds": X, "timed_out": false},
  "counts": {"constancy_ods": 22, "compatibility_ods": 8, "bidirectional_ods": 0},
  "constancy_ods": [
  ],
  "compatibility_ods": [
  ],
  "bidirectional_ods": [
  ]
}
)pin";

inline const char kPinFastodCountOnlyText[] = R"pin(FASTOD: 30 ODs (22 constancy + 8 compatibility + 0 bidirectional) in Xs
)pin";

inline const char kPinTaneCountOnlyJson[] = R"pin({
  "algorithm": "tane",
  "relation": {"rows": 200, "attributes": ["year","flight_id","date_sk","month","quarter","day","carrier","origin"]},
  "stats": {"seconds": X, "timed_out": false},
  "counts": {"fds": 17},
  "fds": [
  ]
}
)pin";

inline const char kPinTaneCountOnlyText[] = R"pin(TANE: 17 minimal FDs in Xs
)pin";

inline const char kPinFastodTimedOutJson[] = R"pin({
  "algorithm": "fastod",
  "relation": {"rows": 200, "attributes": ["year","flight_id","date_sk","month","quarter","day","carrier","origin"]},
  "stats": {"seconds": X, "timed_out": true},
  "constancy_ods": [
  ],
  "compatibility_ods": [
  ],
  "bidirectional_ods": [
  ]
}
)pin";

inline const char kPinFastodTimedOutText[] = R"pin(FASTOD: 0 ODs (0 constancy + 0 compatibility + 0 bidirectional) in Xs [TIMED OUT]
)pin";

inline const char kPinTaneTimedOutJson[] = R"pin({
  "algorithm": "tane",
  "relation": {"rows": 200, "attributes": ["year","flight_id","date_sk","month","quarter","day","carrier","origin"]},
  "stats": {"seconds": X, "timed_out": true},
  "fds": [
  ]
}
)pin";

inline const char kPinTaneTimedOutText[] = R"pin(TANE: 0 minimal FDs in Xs [TIMED OUT]
)pin";

inline const char kPinOrderTimedOutJson[] = R"pin({
  "algorithm": "order",
  "relation": {"rows": 200, "attributes": ["year","flight_id","date_sk","month","quarter","day","carrier","origin"]},
  "stats": {"seconds": X, "timed_out": true},
  "ods": [
  ]
}
)pin";

inline const char kPinOrderTimedOutText[] = R"pin(ORDER: 0 list ODs in Xs [TIMED OUT]
)pin";

}  // namespace fastod

#endif  // FASTOD_TESTS_GOLDEN_REPORT_DATA_H_
