module Relset = Rdb_util.Relset

type t = {
  oracle : Oracle.t;
  prng : Rdb_util.Prng.t;
  sample_size : int;
  memo : (Relset.t, Oracle.sub_join) Hashtbl.t;
}

let create ~sample_size oracle =
  {
    oracle;
    prng = Rdb_util.Prng.create 17;
    sample_size;
    memo = Hashtbl.create 64;
  }

let card t s =
  Oracle.scaled_rows
    (Oracle.sub_join t.oracle ~cap:(t.sample_size, t.prng) t.memo s)
