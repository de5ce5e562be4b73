type t = { threshold : float }

let create threshold =
  if not (threshold >= 1.0) then
    invalid_arg "Trigger.create: threshold must be >= 1";
  { threshold }

let fires t ~est ~actual =
  Rdb_util.Stat_utils.q_error ~est ~actual >= t.threshold
