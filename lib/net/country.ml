type t = string

let nl = "NL"

let pool =
  [| "NL"; "DE"; "GB"; "US"; "FR"; "BE"; "SE"; "CH"; "RU"; "UA";
     "PL"; "CZ"; "AT"; "IT"; "ES"; "PT"; "DK"; "NO"; "FI"; "IE";
     "RO"; "BG"; "HU"; "SK"; "SI"; "HR"; "RS"; "GR"; "TR"; "IL";
     "AE"; "SA"; "IN"; "PK"; "BD"; "LK"; "SG"; "MY"; "TH"; "VN";
     "ID"; "PH"; "HK"; "TW"; "JP"; "KR"; "CN"; "AU"; "NZ"; "ZA";
     "EG"; "NG"; "KE"; "GH"; "TZ"; "MA"; "TN"; "AO"; "MU"; "BR";
     "AR"; "CL"; "CO"; "PE"; "VE"; "EC"; "UY"; "PY"; "BO"; "MX";
     "CA"; "PA"; "CR"; "GT"; "DO"; "JM"; "TT"; "IS"; "EE"; "LV";
     "LT"; "LU"; "MT"; "CY"; "MD"; "GE"; "AM"; "AZ"; "KZ"; "UZ";
     "MN"; "NP"; "KH"; "LA"; "MM"; "BN" |]

module Set = Set.Make (String)
